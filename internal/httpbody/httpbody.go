// Package httpbody reads whole HTTP message bodies. A body that declares its
// length (Content-Length) is read into one buffer sized from that length,
// where io.ReadAll would start at 512 bytes and grow: for a 12 kB estimate
// request that growth allocated about four times the body.
package httpbody

import "io"

// MaxPrealloc caps the buffer allocated up front from a declared length. A
// declared length is the sender's claim, not bytes received: without the
// cap a client could make the reader hold its whole body limit (16 MiB on
// rayschedd) per connection while sending nothing. A body past the cap
// grows as it arrives. 1 MiB is above the largest topology the daemon
// admits by default (5000 links, about 0.6 MB).
const MaxPrealloc = 1 << 20

// ReadAll reads r to EOF and returns the bytes read. declared is the body's
// declared length, as http.Request.ContentLength and
// http.Response.ContentLength carry it; a negative value (unknown length,
// e.g. a chunked body) reads exactly as io.ReadAll does. An error from r is
// returned as is, so a caller can still match an *http.MaxBytesError.
func ReadAll(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 {
		return io.ReadAll(r)
	}
	// The one spare byte lets the read that reports EOF after a body of
	// exactly the declared length find room without growing the buffer.
	b := make([]byte, 0, min(declared, MaxPrealloc)+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // past the declared length: grow as io.ReadAll does
		}
	}
}
