package obs

import (
	"context"
	"testing"
)

func TestTraceContextRoundtrip(t *testing.T) {
	tc := TraceContext{TraceID: "4b8bc3c7d5db6fea", ParentID: 0xdeadbeef}
	s := tc.String()
	if s != "00-4b8bc3c7d5db6fea-00000000deadbeef-01" {
		t.Fatalf("String() = %q", s)
	}
	got, err := ParseTraceContext(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("roundtrip = %+v, want %+v", got, tc)
	}
	// Zero parent is legal: "attach at the root".
	if got, err := ParseTraceContext(TraceContext{TraceID: "a"}.String()); err != nil || got.ParentID != 0 {
		t.Fatalf("zero-parent roundtrip: %+v, %v", got, err)
	}
}

func TestParseTraceContextRejects(t *testing.T) {
	bad := map[string]string{
		"empty":            "",
		"three fields":     "00-abc-0000000000000001",
		"five fields":      "00-abc-0000000000000001-01-00",
		"bad version":      "01-abc-0000000000000001-01",
		"empty trace id":   "00--0000000000000001-01",
		"uppercase":        "00-ABC-0000000000000001-01",
		"long trace id":    "00-" + "0123456789abcdef0123456789abcdef0" + "-0000000000000001-01",
		"short parent":     "00-abc-01-01",
		"nonhex parent":    "00-abc-000000000000000g-01",
		"bad flags":        "00-abc-0000000000000001-1",
		"trace id not hex": "00-xyz-0000000000000001-01",
		"flags not hex":    "00-abc-0000000000000001-zz",
	}
	for name, s := range bad {
		if _, err := ParseTraceContext(s); err == nil {
			t.Errorf("%s: accepted %q", name, s)
		}
	}
}

func TestTraceContextFrom(t *testing.T) {
	// No tracer → no context, regardless of run ID: untraced runs must send
	// no header at all.
	ctx := WithRunID(context.Background(), "4b8bc3c7d5db6fea")
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("context without tracer produced a trace context")
	}

	tr := NewTracer(8)
	ctx = WithTracer(ctx, tr)
	tc, ok := TraceContextFrom(ctx)
	if !ok || tc.TraceID != "4b8bc3c7d5db6fea" || tc.ParentID != 0 {
		t.Fatalf("root-level context = %+v ok=%v", tc, ok)
	}

	sctx, sp := Start(ctx, "dispatch")
	defer sp.End()
	tc, ok = TraceContextFrom(sctx)
	if !ok || tc.ParentID != sp.ID() {
		t.Fatalf("in-span context = %+v ok=%v, want parent %d", tc, ok, sp.ID())
	}

	// A tracer but no (or unusable) run ID also yields no context.
	if _, ok := TraceContextFrom(WithTracer(context.Background(), tr)); ok {
		t.Fatal("context without run id produced a trace context")
	}
	bad := WithTracer(WithRunID(context.Background(), "NOT-HEX"), tr)
	if _, ok := TraceContextFrom(bad); ok {
		t.Fatal("non-hex run id produced a trace context")
	}
}

// FuzzParseTraceContext feeds arbitrary header values to the parser: it must
// not panic, and every value it accepts must round-trip through
// TraceContext.String to the same trace and parent IDs.
func FuzzParseTraceContext(f *testing.F) {
	f.Add("00-4b8bc3c7d5db6fea-00000000deadbeef-01")
	f.Add("00-a-0000000000000000-00")
	f.Add("00-0123456789abcdef0123456789abcdef-ffffffffffffffff-ff")
	f.Add("00-ABC-0000000000000001-01")
	f.Add("00--0000000000000001-01")
	f.Add("00-abc-0000000000000001-01-00")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceContext(s)
		if err != nil {
			return
		}
		back, err := ParseTraceContext(tc.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose String %q does not parse: %v", s, tc, tc.String(), err)
		}
		if back.TraceID != tc.TraceID || back.ParentID != tc.ParentID {
			t.Fatalf("%q parsed to %+v, its String %q to %+v", s, tc, tc.String(), back)
		}
	})
}
