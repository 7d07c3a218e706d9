// Package obs is the repo's zero-dependency observability layer: it gives
// the sim engine, the algorithm packages, and rayschedd one shared
// vocabulary for spans (hierarchical, nanosecond-timed sections of work),
// counters (named atomic tallies), structured logging (log/slog), and
// run/request identifiers.
//
// Design constraints, in order:
//
//  1. Allocation-free when disabled. Instrumented code calls
//     obs.Start(ctx, name) unconditionally; when no Tracer is installed
//     (neither in ctx nor as the process default) the call returns a nil
//     *Span and the original ctx, touching the heap not at all. Every Span
//     and Counter method is nil-receiver-safe, so call sites never branch.
//     This is what keeps the 0 allocs/op kernel benchmarks at 0 allocs/op.
//  2. Deterministic workloads stay deterministic. obs never draws from the
//     experiment RNG streams and never reorders work; enabling tracing must
//     leave every fixed-seed output byte-identical (CI asserts this).
//  3. Bounded memory. Completed spans land in a fixed-capacity ring; a
//     long-running daemon keeps the most recent spans and a total count,
//     never an unbounded trace.
//
// The span model: Start derives a child span from the span already in ctx
// (or a root span when there is none) and returns a ctx carrying the new
// span, so nesting follows the call tree with no global state. End stamps
// the duration and moves the span into the tracer's ring. Each record keeps
// its root ancestor, which the Chrome trace-event exporter (trace.go) uses
// as the track id — concurrent replications render as parallel tracks in
// Perfetto with their phase spans nested underneath.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values should be scalars
// (string, ints, float64, bool): they serialize into the Chrome trace
// "args" object and the /debug/obs listing.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanRecord is one completed span as stored in the tracer ring. Start is
// an offset from the tracer's epoch, not wall-clock time, so records order
// and nest correctly even across clock adjustments.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0 for root spans
	Root   uint64        `json:"root"`             // top-level ancestor (== ID for roots)
	Remote uint64        `json:"remote,omitempty"` // parent span ID in another process's tracer (cross-process link)
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Tracer collects completed spans into a fixed-capacity ring buffer. All
// methods are safe for concurrent use; a nil *Tracer is a valid "tracing
// off" value everywhere.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	total atomic.Uint64

	mu   sync.Mutex
	ring []SpanRecord
	n    int // occupied slots (≤ cap)
	next int // next write position
}

// DefaultRingCapacity bounds the span ring when NewTracer is given a
// non-positive capacity.
const DefaultRingCapacity = 4096

// NewTracer returns a Tracer whose ring keeps the most recent `capacity`
// completed spans (<= 0 selects DefaultRingCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Tracer{epoch: time.Now(), ring: make([]SpanRecord, capacity)}
}

// EpochUnixNano returns the tracer's epoch as Unix nanoseconds — the anchor
// that lets a merger re-express another process's epoch-relative span
// timestamps on this process's timeline. Nil-safe (0).
func (t *Tracer) EpochUnixNano() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixNano()
}

// Recorded returns the total number of spans ever completed on this tracer,
// including those the ring has since evicted. Nil-safe (0).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Snapshot returns the retained spans in completion order (oldest first).
// Nil-safe (nil).
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// record moves one completed span into the ring.
func (t *Tracer) record(r SpanRecord) {
	t.total.Add(1)
	t.mu.Lock()
	t.ring[t.next] = r
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Span is one in-flight timed section. The zero of the API is nil: every
// method on a nil *Span is a no-op, which is how disabled instrumentation
// costs nothing.
type Span struct {
	tracer *Tracer
	name   string
	id     uint64
	parent uint64
	root   uint64
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	remote uint64
	ended  bool
}

// ID returns the span's tracer-local identifier (0 for a nil span) — the
// value a caller embeds in an outbound TraceContext so remote work can link
// back to this span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetRemoteParent links this span under a span that lives in another
// process's tracer (the coordinator-side dispatch span whose TraceContext
// arrived with the request). The link is recorded verbatim in
// SpanRecord.Remote; the trace merger resolves it when stitching worker
// bundles under the coordinator's timeline.
func (s *Span) SetRemoteParent(id uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.remote = id
	s.mu.Unlock()
}

// SetAttr annotates the span. Later values win for a repeated key.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Add accumulates n into a per-span integer counter attribute — the
// idiom for inner-loop tallies (fading draws, feasibility checks) that
// should ride on the enclosing span rather than pay a registry lookup.
func (s *Span) Add(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			if v, ok := s.attrs[i].Value.(int64); ok {
				s.attrs[i].Value = v + n
				return
			}
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: n})
}

// End completes the span and records it. Safe to call more than once (the
// first call wins) and on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	remote := s.remote
	s.mu.Unlock()
	s.tracer.record(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Root:   s.root,
		Remote: remote,
		Name:   s.name,
		Start:  s.start.Sub(s.tracer.epoch),
		Dur:    dur,
		Attrs:  attrs,
	})
}

// ---- context plumbing ------------------------------------------------------

type tracerKey struct{}
type spanKey struct{}

// defaultTracer is the process-wide fallback observed when ctx carries no
// tracer. Its users are callers that run work under context.Background():
// raybench's scenario ops and `golden -trace`, and the benchmark suite. The
// raysched CLI and rayschedd carry their tracer in ctx instead.
var defaultTracer atomic.Pointer[Tracer]

// SetDefault installs (or, with nil, removes) the process-default tracer.
func SetDefault(t *Tracer) {
	if t == nil {
		defaultTracer.Store(nil)
		return
	}
	defaultTracer.Store(t)
}

// WithTracer returns a ctx whose Start calls record into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer governing ctx: the one installed with
// WithTracer, else the process default, else nil.
func TracerFrom(ctx context.Context) *Tracer {
	if t, ok := ctx.Value(tracerKey{}).(*Tracer); ok {
		return t
	}
	return defaultTracer.Load()
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a span named name as a child of the span in ctx (a root span
// when there is none) and returns a ctx carrying it. When no tracer governs
// ctx it returns (ctx, nil) without allocating — the disabled fast path.
// The caller must End the returned span (nil-safe, so unconditionally).
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: t,
		name:   name,
		id:     t.ids.Add(1),
		start:  time.Now(),
	}
	if parent := SpanFrom(ctx); parent != nil && parent.tracer == t {
		sp.parent = parent.id
		sp.root = parent.root
	} else {
		sp.root = sp.id
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartDetached opens a span that keeps its parent linkage (for the trace
// args) but is its own root — it renders on its own track in the Chrome
// trace rather than nesting inside the parent's. This is the right shape for
// work that runs concurrently with its siblings (replications under a
// ParallelCtx fan-out, per-request algorithm calls in the daemon): complete
// events on one Chrome track must nest by containment, which overlapping
// siblings would violate. Disabled path and nil-safety match Start.
func StartDetached(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: t,
		name:   name,
		id:     t.ids.Add(1),
		start:  time.Now(),
	}
	sp.root = sp.id
	if parent := SpanFrom(ctx); parent != nil && parent.tracer == t {
		sp.parent = parent.id
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}
