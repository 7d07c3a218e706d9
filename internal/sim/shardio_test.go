package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rayfade/internal/rng"
)

// testShard builds a valid shard for the [lo,hi) range of an 8-rep run.
func testShard(t *testing.T, lo, hi int) *Shard {
	t.Helper()
	results := make(map[int]json.RawMessage, hi-lo)
	for rep := lo; rep < hi; rep++ {
		results[rep] = json.RawMessage(fmt.Sprintf(`{"rep":%d}`, rep))
	}
	return &Shard{Experiment: "test", ConfigSHA: "abc", Reps: 8, Lo: lo, Hi: hi, Results: results}
}

func TestShardEncodeDecodeRoundTrip(t *testing.T) {
	sh := testShard(t, 2, 5)
	doc, err := sh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShard(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != sh.Experiment || back.ConfigSHA != sh.ConfigSHA ||
		back.Reps != sh.Reps || back.Lo != sh.Lo || back.Hi != sh.Hi {
		t.Fatalf("round trip header: %+v", back)
	}
	for rep, data := range sh.Results {
		if !bytes.Equal(back.Results[rep], data) {
			t.Fatalf("rep %d: %s != %s", rep, back.Results[rep], data)
		}
	}
	// Deterministic encoding: same shard, same bytes.
	doc2, err := sh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, doc2) {
		t.Fatal("shard encoding is not deterministic")
	}
}

func TestDecodeShardTamperedChecksum(t *testing.T) {
	doc, err := testShard(t, 0, 4).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the body (a rep payload digit) — the envelope
	// checksum must catch it.
	tampered := bytes.Replace(doc, []byte(`{"rep":0}`), []byte(`{"rep":9}`), 1)
	if bytes.Equal(tampered, doc) {
		t.Fatal("tamper did not change the document")
	}
	if _, err := DecodeShard(tampered); !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("tampered shard: err = %v, want ErrShardCorrupt", err)
	}
}

func TestShardEncodeRejectsInconsistency(t *testing.T) {
	missing := testShard(t, 0, 4)
	delete(missing.Results, 2)
	if _, err := missing.Encode(); !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("missing rep: err = %v, want ErrShardCorrupt", err)
	}
	bad := testShard(t, 3, 6)
	bad.Hi = 2 // inverted range
	if _, err := bad.Encode(); !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("inverted range: err = %v, want ErrShardCorrupt", err)
	}
}

func TestMergeShardsOverlapRejected(t *testing.T) {
	shards := []*Shard{testShard(t, 0, 4), testShard(t, 3, 8)}
	if _, err := MergeShards("test", "abc", 8, shards); !errors.Is(err, ErrShardOverlap) {
		t.Fatalf("overlap: err = %v, want ErrShardOverlap", err)
	}
}

func TestMergeShardsGapDetected(t *testing.T) {
	// Interior gap.
	if _, err := MergeShards("test", "abc", 8, []*Shard{testShard(t, 0, 3), testShard(t, 5, 8)}); !errors.Is(err, ErrShardGap) {
		t.Fatalf("interior gap: err = %v, want ErrShardGap", err)
	}
	// Missing head.
	if _, err := MergeShards("test", "abc", 8, []*Shard{testShard(t, 2, 8)}); !errors.Is(err, ErrShardGap) {
		t.Fatalf("missing head: err = %v, want ErrShardGap", err)
	}
	// Missing tail.
	if _, err := MergeShards("test", "abc", 8, []*Shard{testShard(t, 0, 6)}); !errors.Is(err, ErrShardGap) {
		t.Fatalf("missing tail: err = %v, want ErrShardGap", err)
	}
}

func TestMergeShardsIdentityMismatch(t *testing.T) {
	full := []*Shard{testShard(t, 0, 8)}
	if _, err := MergeShards("other", "abc", 8, full); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("experiment mismatch: err = %v, want ErrShardMismatch", err)
	}
	if _, err := MergeShards("test", "zzz", 8, full); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("config mismatch: err = %v, want ErrShardMismatch", err)
	}
	if _, err := MergeShards("test", "abc", 9, full); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reps mismatch: err = %v, want ErrShardMismatch", err)
	}
}

func TestMergeShardsCompleteCover(t *testing.T) {
	merged, err := MergeShards("test", "abc", 8,
		[]*Shard{testShard(t, 4, 8), testShard(t, 0, 2), testShard(t, 2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 8 {
		t.Fatalf("merged %d of 8", len(merged))
	}
	for rep := 0; rep < 8; rep++ {
		want := fmt.Sprintf(`{"rep":%d}`, rep)
		if string(merged[rep]) != want {
			t.Fatalf("rep %d: %s", rep, merged[rep])
		}
	}
}

// TestResumeAfterMergeIdempotent: a merged checkpoint must be a fixed point
// — resuming from it recomputes nothing and rewrites the same results, so
// running the pipeline twice over the same merged file yields identical
// outputs and an unchanged replication set.
func TestResumeAfterMergeIdempotent(t *testing.T) {
	const reps = 6
	cfgKey := struct{ Label string }{"merge-idem"}
	sha, err := ConfigHash(cfgKey)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := intCodec()
	fn := func(_ context.Context, rep int, src *rng.Source) int { return rep*10 + int(src.Float64()*10) }

	// Compute the full run as two shard-shaped halves.
	want, err := ParallelCtx(context.Background(), reps, 1, rng.New(5), fn)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[int]json.RawMessage, reps)
	for rep, v := range want {
		data, err := enc(v)
		if err != nil {
			t.Fatal(err)
		}
		results[rep] = data
	}
	merged, err := MergeShards("test", sha, reps, []*Shard{
		{Experiment: "test", ConfigSHA: sha, Reps: reps, Lo: 0, Hi: 3,
			Results: map[int]json.RawMessage{0: results[0], 1: results[1], 2: results[2]}},
		{Experiment: "test", ConfigSHA: sha, Reps: reps, Lo: 3, Hi: 6,
			Results: map[int]json.RawMessage{3: results[3], 4: results[4], 5: results[5]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "merged.ckpt")
	if err := WriteMergedCheckpoint(path, "test", sha, reps, merged); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		ck, err := OpenCheckpoint(path, "test", cfgKey, reps, 1)
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		if ck.Restored() != reps {
			t.Fatalf("round %d restored %d of %d", round, ck.Restored(), reps)
		}
		got, err := ParallelCheckpointCtx(context.Background(), reps, 2, rng.New(5), ck, enc, dec,
			func(_ context.Context, rep int, src *rng.Source) int {
				// Runs on a worker goroutine — Error, not Fatal.
				t.Errorf("round %d recomputed replication %d", round, rep)
				return -1
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d rep %d: %d != %d", round, i, got[i], want[i])
			}
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, first) {
			t.Fatalf("round %d rewrote the checkpoint differently", round)
		}
	}
}

func TestWriteMergedCheckpointRejectsPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.ckpt")
	err := WriteMergedCheckpoint(path, "test", "abc", 4, map[int]json.RawMessage{0: json.RawMessage(`1`)})
	if err == nil {
		t.Fatal("partial merge written without error")
	}
}
