package server

import (
	"encoding/json"
	"net/http"

	"rayfade/internal/obs"
)

// traceRingSpans bounds one trace's span retention on a worker. A Figure-1
// shard records a handful of request/replication/phase spans per
// replication, so 16Ki spans comfortably covers realistic shards while
// capping the memory one trace can pin.
const traceRingSpans = 1 << 14

// newTraceTracer is the per-trace span collector the server's trace LRU
// creates on a trace ID's first request. Each distinct trace ID gets its own
// obs.Tracer (own ring, own epoch), so one cluster run's spans are not
// interleaved with another's and a fetch serializes exactly the requested
// trace; the LRU bound ages out abandoned traces (coordinator died before
// fetching) instead of pinning memory.
//
// Spans collected here deliberately do not land in the server's main tracer:
// the request context carries the per-trace tracer instead, so /debug/obs
// shows locally-traced traffic while cluster traces stay per-run.
func newTraceTracer() *obs.Tracer { return obs.NewTracer(traceRingSpans) }

// handleTraceFetch is GET /v1/trace/{id}: the shard-trace return channel. A
// coordinator that dispatched work under a trace ID fetches the worker's
// span collection for that trace and merges it with its own
// (obs.WriteMergedTrace). 404 means the worker never collected the trace —
// it saw no requests under that ID, or the collection was evicted.
func (s *Server) handleTraceFetch(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, &httpError{status: http.StatusServiceUnavailable,
			msg: "trace collection is disabled on this worker (-traces < 0)"})
		return
	}
	id := r.PathValue("id")
	if id == "" || len(id) > 64 {
		writeError(w, badRequest("trace id must be 1-64 characters"))
		return
	}
	tr, ok := s.traces.get(id)
	if !ok {
		writeError(w, &httpError{status: http.StatusNotFound,
			msg: "unknown trace id (never collected, or evicted)"})
		return
	}
	body, err := json.Marshal(tr.Bundle(id, s.instance))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// validRequestID reports whether an inbound X-Request-ID is safe to adopt
// for log correlation: short and drawn from a conservative charset, so a
// hostile client cannot inject log records or unbounded labels.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}
