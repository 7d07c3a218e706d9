package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "root")
	if root == nil {
		t.Fatal("root span nil with tracer installed")
	}
	ctx2, child := Start(ctx1, "child")
	_, grand := Start(ctx2, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: grandchild, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if g.Parent != c.ID || c.Parent != r.ID || r.Parent != 0 {
		t.Fatalf("parent chain wrong: %+v", spans)
	}
	if g.Root != r.ID || c.Root != r.ID || r.Root != r.ID {
		t.Fatalf("root ids wrong: %+v", spans)
	}
	if g.Start < c.Start || c.Start < r.Start {
		t.Fatalf("start offsets not monotone down the tree: %+v", spans)
	}
}

func TestStartWithoutTracerIsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c2, sp := Start(ctx, "nothing")
		sp.SetAttr("k", 1)
		sp.Add("n", 5)
		sp.End()
		if c2 != ctx {
			t.Fatal("disabled Start must return the original ctx")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var sp *Span
	sp.SetAttr("a", 1)
	sp.Add("b", 2)
	sp.End()
	var tr *Tracer
	if tr.Recorded() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer must read as empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("nil tracer trace: %v", err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	var c *Counter
	c.Add(3)
	if c.Load() != 0 || c.Name() != "" {
		t.Fatal("nil counter must read as zero")
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.Snapshot() != nil {
		t.Fatal("nil registry must read as empty")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "s")
		sp.End()
	}
	if got := tr.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	// The ring keeps the most recent completions: ids 7..10.
	for i, s := range spans {
		if want := uint64(7 + i); s.ID != want {
			t.Fatalf("span %d has id %d, want %d", i, s.ID, want)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "once")
	sp.End()
	sp.End()
	if got := tr.Recorded(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
}

func TestSpanAttrsAndCounters(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "attrs")
	sp.SetAttr("links", 100)
	sp.SetAttr("links", 200) // overwrite
	sp.Add("draws", 5)
	sp.Add("draws", 7)
	sp.End()
	rec := tr.Snapshot()[0]
	got := map[string]any{}
	for _, a := range rec.Attrs {
		got[a.Key] = a.Value
	}
	if got["links"] != 200 {
		t.Fatalf("links attr = %v", got["links"])
	}
	if got["draws"] != int64(12) {
		t.Fatalf("draws counter = %v", got["draws"])
	}
}

func TestDefaultTracerFallback(t *testing.T) {
	tr := NewTracer(8)
	SetDefault(tr)
	defer SetDefault(nil)
	_, sp := Start(context.Background(), "via-default")
	sp.End()
	if tr.Recorded() != 1 {
		t.Fatal("default tracer did not record")
	}
	SetDefault(nil)
	if ctx2, sp := Start(context.Background(), "off"); sp != nil || ctx2 != context.Background() {
		t.Fatal("cleared default still traces")
	}
}

func TestChromeExportValidates(t *testing.T) {
	tr := NewTracer(64)
	ctx := WithTracer(context.Background(), tr)
	ctx1, root := Start(ctx, "experiment")
	root.SetAttr("networks", 2)
	for i := 0; i < 3; i++ {
		_, child := Start(ctx1, "replication")
		child.SetAttr("rep", i)
		child.End()
	}
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, buf.String())
	}
	if stats.Events != 4 {
		t.Fatalf("events = %d, want 4", stats.Events)
	}
	if !stats.Nested {
		t.Fatalf("nesting not detected in:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"rep"`) {
		t.Fatal("attrs missing from args")
	}
}

func TestValidateTraceRejects(t *testing.T) {
	bad := map[string]string{
		"not json":     `]`,
		"no array":     `{}`,
		"missing name": `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"missing ph":   `{"traceEvents":[{"name":"a","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"missing tid":  `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1,"pid":1}]}`,
		"negative ts":  `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1,"pid":1,"tid":1}]}`,
		"negative dur": `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		"missing dur":  `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]}`,
	}
	for name, doc := range bad {
		if _, err := ValidateTrace([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Metadata events need no timing.
	if _, err := ValidateTrace([]byte(`{"traceEvents":[{"name":"process_name","ph":"M"}]}`)); err != nil {
		t.Errorf("metadata event rejected: %v", err)
	}
}

func TestRegistryCounters(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("a.b")
	c2 := reg.Counter("a.b")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	c1.Add(3)
	c2.Add(4)
	reg.Counter("z").Add(1)
	snap := reg.Snapshot()
	if len(snap) != 2 || snap["a.b"] != 7 || snap["z"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestConcurrentUse exercises spans and counters from 8 workers at once;
// under -race (CI runs this package with the race detector) it is the
// thread-safety proof the satellite task asks for.
func TestConcurrentUse(t *testing.T) {
	tr := NewTracer(128)
	reg := NewRegistry()
	ctx := WithTracer(context.Background(), tr)
	shared := reg.Counter("shared")
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c1, sp := Start(ctx, "worker")
				sp.SetAttr("w", w)
				sp.Add("iters", 1)
				_, child := Start(c1, "inner")
				child.End()
				sp.End()
				shared.Add(1)
				reg.Counter("per").Add(2)
				if i%50 == 0 {
					tr.Snapshot()
					reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Recorded(); got != workers*iters*2 {
		t.Fatalf("recorded %d spans, want %d", got, workers*iters*2)
	}
	if shared.Load() != workers*iters {
		t.Fatalf("shared counter = %d", shared.Load())
	}
}

func TestIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
	if NewRunID() == NewRunID() {
		t.Fatal("run ids collide")
	}
	if _, err := ParseLevel("debug"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseLevel("nope"); err == nil {
		t.Fatal("bad level accepted")
	}
	ctx := WithRunID(context.Background(), "abc")
	if RunID(ctx) != "abc" || RunID(context.Background()) != "" {
		t.Fatal("run id ctx plumbing broken")
	}
}
