package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
)

// TestReadAllMatchesIoReadAll: whatever length is declared — unknown, exact,
// short or long — and however the reader splits its data, ReadAll returns
// the bytes io.ReadAll returns.
func TestReadAllMatchesIoReadAll(t *testing.T) {
	readers := map[string]func([]byte) io.Reader{
		"whole":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"onebyte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":    func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"dataerr": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	for _, size := range []int{0, 1, 511, 512, 513, 12_000, MaxPrealloc + 3} {
		body := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		for _, declared := range []int64{-1, int64(size), int64(size / 2), int64(size) + 100} {
			for name, mk := range readers {
				got, err := ReadAll(mk(body), declared)
				if err != nil {
					t.Fatalf("size %d declared %d %s: %v", size, declared, name, err)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("size %d declared %d %s: read %d bytes, want the %d-byte body", size, declared, name, len(got), size)
				}
			}
		}
	}
}

// TestReadAllOneAllocation: a body of exactly its declared length is read
// into a single allocation, the EOF read included.
func TestReadAllOneAllocation(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 12_000)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := ReadAll(rd, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("%.0f allocs per read, want 1", allocs)
	}
}

// TestReadAllCapsPrealloc: a declared length is a claim, so the buffer
// sized from it is capped at MaxPrealloc however much is declared.
func TestReadAllCapsPrealloc(t *testing.T) {
	got, err := ReadAll(bytes.NewReader([]byte("ten bytes!")), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ten bytes!" || cap(got) > MaxPrealloc+1 {
		t.Fatalf("read %q into a %d-byte buffer, want \"ten bytes!\" in at most %d", got, cap(got), MaxPrealloc+1)
	}
}

// TestReadAllKeepsReaderErrors: a reader's error comes back unwrapped, so
// the daemon still maps an *http.MaxBytesError onto 413.
func TestReadAllKeepsReaderErrors(t *testing.T) {
	body := []byte("0123456789")
	for _, declared := range []int64{-1, int64(len(body))} {
		rd := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), 4)
		_, err := ReadAll(rd, declared)
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != 4 {
			t.Fatalf("declared %d: err = %v, want *http.MaxBytesError with limit 4", declared, err)
		}
	}
	boom := errors.New("boom")
	if _, err := ReadAll(iotest.ErrReader(boom), 10); err != boom {
		t.Fatalf("err = %v, want the reader's own error", err)
	}
}
