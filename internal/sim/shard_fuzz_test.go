package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeShard feeds arbitrary bytes to the shard decoder, both as a
// whole document and, when they are JSON, as a body sealed with its correct
// checksum, so mutations reach the body decoding behind the checksum. The
// decoder must not panic, and a document it accepts must re-encode to one
// that decodes to the same shard: equal header, and each result equal to its
// first decoding in encoding/json's compact form. Encoding that shard again
// gives the same bytes.
func FuzzDecodeShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkShardRoundTrip(t, data)
		if sealed, err := sealDocument(json.RawMessage(data)); err == nil {
			checkShardRoundTrip(t, sealed)
		}
	})
}

func checkShardRoundTrip(t *testing.T, doc []byte) {
	first, err := DecodeShard(doc)
	if err != nil {
		return
	}
	enc, err := first.Encode()
	if err != nil {
		t.Fatalf("accepted shard %+v does not encode: %v", first, err)
	}
	second, err := DecodeShard(enc)
	if err != nil {
		t.Fatalf("re-encoded shard does not decode: %v", err)
	}
	if second.Experiment != first.Experiment || second.ConfigSHA != first.ConfigSHA ||
		second.Reps != first.Reps || second.Lo != first.Lo || second.Hi != first.Hi ||
		len(second.Results) != len(first.Results) {
		t.Fatalf("header changed in a round trip: %+v, then %+v", first, second)
	}
	for rep, data := range first.Results {
		compact, err := json.Marshal(data)
		if err != nil {
			t.Fatalf("rep %d: accepted result %q does not marshal: %v", rep, data, err)
		}
		if !bytes.Equal(second.Results[rep], compact) {
			t.Fatalf("rep %d: result %q came back as %q", rep, compact, second.Results[rep])
		}
	}
	again, err := second.Encode()
	if err != nil {
		t.Fatalf("round-tripped shard does not encode: %v", err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, again)
	}
}
