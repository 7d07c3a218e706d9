package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"rayfade/internal/faults"
)

// batchFlushEvery is how many response lines accumulate between explicit
// flushes: frequent enough that a slowly-produced batch streams, rare
// enough that a cache-hot batch is not one syscall per line.
const batchFlushEvery = 64

// handleEstimateBatch is POST /v1/estimate/batch: an NDJSON stream of
// estimate requests in, one response line per request out, in order. A
// success line is byte-identical to the /v1/estimate response body for the
// same request (both come out of respond on the same canonical key, so the
// two endpoints share the cache and collapse onto each other's in-flight
// computations); a failed line is the standard {"error": ...} document and
// does not abort the rest of the batch.
//
// The batch is the amortization endpoint: one connection, one HTTP
// round-trip, one instrumented envelope, and one deadline cover thousands
// of estimates, while each line still flows through the existing pipeline —
// handler fault site, cache, singleflight, pool admission, deadline — so
// batching changes the framing, never the semantics.
//
// The whole batch runs under one deadline: the server default, tightened by
// a ?timeout_ms= query parameter (the NDJSON body has no envelope to carry
// one); a line may tighten further with its own timeout_ms field.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	// Request-level chaos hook, mirroring serve: a transient fault here
	// rejects the whole batch before any line is processed.
	if err := faults.Inject(faults.SiteHandler); err != nil {
		writeError(w, err)
		return
	}
	var timeoutMS int64
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, badRequest("timeout_ms query parameter %q is not a non-negative integer", v))
			return
		}
		timeoutMS = ms
	}
	ctx, cancel := s.deadline(r.Context(), timeoutMS)
	defer cancel()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes))

	flusher, _ := w.(http.Flusher)
	lines := 0
	wrote := false
	writeLine := func(body []byte) bool {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if _, err := w.Write(body); err != nil {
			return false
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return false
		}
		if flusher != nil && lines%batchFlushEvery == 0 {
			flusher.Flush()
		}
		return true
	}

	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lines++
		if lines > s.cfg.MaxBatchLines {
			s.batchLineErrors.Add(1)
			writeLine(errorLine(badRequest("batch exceeds %d lines; split it", s.cfg.MaxBatchLines)))
			return
		}
		body, err := s.batchLine(ctx, line)
		if err != nil {
			s.batchLineErrors.Add(1)
			body = errorLine(err)
		}
		s.batchLines.Add(1)
		if !writeLine(body) {
			return // client went away; stop burning workers on it
		}
		// A dead batch deadline fails every remaining line identically;
		// stop after reporting it once instead of emitting thousands of
		// copies of the same error.
		if err != nil && ctx.Err() != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		if !wrote {
			if tooLarge := bodyTooLarge(err); tooLarge != nil {
				writeError(w, tooLarge)
				return
			}
			writeError(w, badRequest("read batch: %v", err))
			return
		}
		s.batchLineErrors.Add(1)
		writeLine(errorLine(badRequest("read batch: %v", err)))
		return
	}
	if lines == 0 {
		writeError(w, badRequest("empty batch (want one JSON estimate request per line)"))
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// batchLine serves one NDJSON line through the /v1/estimate row of the
// endpoint table: decode, resolve (topology, defaults, validation), then the
// shared cache/singleflight/pool pipeline on the /v1/estimate key. The
// returned bytes are exactly what /v1/estimate would have answered.
func (s *Server) batchLine(ctx context.Context, line []byte) ([]byte, error) {
	// Per-line chaos hook: armed server.handler faults hit individual
	// estimates, not just whole batches, so the fault surface per unit of
	// work matches the single-request path.
	if err := faults.Inject(faults.SiteHandler); err != nil {
		return nil, err
	}
	req := estimateEndpoint.newReq()
	if err := decodeStrict(bytes.NewReader(line), req, "line"); err != nil {
		return nil, err
	}
	c, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	if c.timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = s.deadline(ctx, c.timeoutMS)
		defer cancel()
	}
	out, err := s.respond(ctx, requestKey(estimateEndpoint.path, c.params, c.canon), c.compute)
	if out.pooled && out.source == sourceMiss {
		s.metrics.ObserveQueueWait("/v1/estimate/batch", out.wait.Seconds())
	}
	if err != nil {
		return nil, err
	}
	return out.body, nil
}

// errorLine renders err as the standard JSON error document, sans newline.
func errorLine(err error) []byte {
	body, merr := json.Marshal(errorBody{Error: err.Error()})
	if merr != nil {
		return []byte(`{"error":"internal"}`)
	}
	return body
}
