package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"seed=5",                      // arms nothing
		"pool.job",                    // no '='
		"pool.job=panic",              // no prob
		"pool.job=panic:0.5:1ms",      // panic takes no param
		"pool.job=error:0.5:x",        // error takes no param
		"pool.job=explode:0.5",        // unknown kind
		"pool.job=panic:1.5",          // prob out of range
		"pool.job=panic:-0.1",         // prob out of range
		"pool.job=panic:NaN",          // prob NaN
		"pool.job=delay:0.5:-3ms",     // negative delay
		"pool.job=delay:0.5:bogus",    // unparsable duration
		"fsio.write=partial:0.5:1.0",  // fraction must be < 1
		"fsio.write=partial:0.5:-0.1", // fraction must be >= 0
		"seed=abc,pool.job=panic:0.5", // bad seed
		"pool.job=panic:0.5:1:2",      // too many parts
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestParseAccepts(t *testing.T) {
	inj, err := Parse("seed=9, pool.job=panic:0.25, server.handler=error:1, sim.replication=delay:0.5:2ms, fsio.write=partial:1:0.25")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if inj.seed != 9 {
		t.Fatalf("seed = %d, want 9", inj.seed)
	}
	if len(inj.sites) != 4 {
		t.Fatalf("sites = %d, want 4", len(inj.sites))
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	if err := inj.Inject(SitePoolJob); err != nil {
		t.Fatalf("nil Inject: %v", err)
	}
	if n, fail := inj.PartialWrite(SiteFileWrite, 100); fail || n != 0 {
		t.Fatalf("nil PartialWrite = (%d, %v)", n, fail)
	}
	if inj.Snapshot() != nil {
		t.Fatal("nil Snapshot should be nil")
	}
	if inj.Fired() != 0 {
		t.Fatal("nil Fired should be 0")
	}
	if inj.Summary() != "no faults fired" {
		t.Fatalf("nil Summary = %q", inj.Summary())
	}
}

func TestPackageHelpersWithNoDefault(t *testing.T) {
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("Enabled with no default injector")
	}
	if err := Inject(SiteHandler); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if n, fail := PartialWrite(SiteFileWrite, 64); fail || n != 0 {
		t.Fatalf("PartialWrite = (%d, %v)", n, fail)
	}
}

func TestErrorFault(t *testing.T) {
	inj, err := Parse("server.handler=error:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := inj.Inject(SiteHandler)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("Inject #%d = %v, want ErrInjected", i, err)
		}
		if !strings.Contains(err.Error(), SiteHandler) {
			t.Fatalf("error %q does not name the site", err)
		}
	}
	// Unarmed site on the same injector stays clean.
	if err := inj.Inject(SitePoolJob); err != nil {
		t.Fatalf("unarmed site: %v", err)
	}
	if got := inj.Snapshot()["server.handler/error"]; got != 3 {
		t.Fatalf("fired = %d, want 3", got)
	}
	if inj.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", inj.Fired())
	}
	if want := "server.handler/error=3"; inj.Summary() != want {
		t.Fatalf("Summary = %q, want %q", inj.Summary(), want)
	}
}

func TestPanicFault(t *testing.T) {
	inj, err := Parse("pool.job=panic:1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "injected panic") || !strings.Contains(msg, SitePoolJob) {
			t.Fatalf("panic value = %v", r)
		}
	}()
	inj.Inject(SitePoolJob)
}

func TestDelayFault(t *testing.T) {
	inj, err := Parse("sim.replication=delay:1:30ms")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := inj.Inject(SiteReplication); err != nil {
		t.Fatalf("delay should not error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay too short: %v", d)
	}
	if got := inj.Snapshot()["sim.replication/delay"]; got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
}

func TestPartialWriteFault(t *testing.T) {
	inj, err := Parse("fsio.write=partial:1:0.25")
	if err != nil {
		t.Fatal(err)
	}
	n, fail := inj.PartialWrite(SiteFileWrite, 100)
	if !fail || n != 25 {
		t.Fatalf("PartialWrite = (%d, %v), want (25, true)", n, fail)
	}
	// Partial rules must not leak into Inject.
	if err := inj.Inject(SiteFileWrite); err != nil {
		t.Fatalf("Inject on partial-only site: %v", err)
	}
}

func TestDeterministicSequence(t *testing.T) {
	spec := "seed=42,server.handler=error:0.5"
	draw := func() []bool {
		inj, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Inject(SiteHandler) != nil
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different fault sequences")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.5 over %d draws fired %d times; stream looks degenerate", len(a), fired)
	}
}

func TestSeedChangesSequence(t *testing.T) {
	seq := func(spec string) []bool {
		inj, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Inject(SiteHandler) != nil
		}
		return out
	}
	if reflect.DeepEqual(seq("seed=1,server.handler=error:0.5"), seq("seed=2,server.handler=error:0.5")) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestSiteStreamsIndependent(t *testing.T) {
	// Adding a second site must not perturb the first site's sequence.
	seq := func(spec string) []bool {
		inj, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Inject(SiteHandler) != nil
		}
		return out
	}
	solo := seq("seed=7,server.handler=error:0.5")
	joint := seq("seed=7,pool.job=panic:0.9,server.handler=error:0.5")
	if !reflect.DeepEqual(solo, joint) {
		t.Fatal("arming an unrelated site changed this site's sequence")
	}
}

func TestZeroProbabilityNeverFires(t *testing.T) {
	inj, err := Parse("server.handler=error:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := inj.Inject(SiteHandler); err != nil {
			t.Fatalf("prob 0 fired at draw %d", i)
		}
	}
	if inj.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", inj.Fired())
	}
}

func TestConcurrentInjectIsSafe(t *testing.T) {
	inj, err := Parse("server.handler=error:0.5,server.handler=delay:0.1:0s")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				inj.Inject(SiteHandler)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	inj.Snapshot() // must not race with anything above
}

func BenchmarkInjectDisabled(b *testing.B) {
	SetDefault(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Inject(SiteReplication); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCheckReturnsDelayWithoutSleeping(t *testing.T) {
	inj, err := Parse("seed=3,client.latency=delay:1:250ms")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d, cerr := inj.Check(SiteClientLatency)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("Check slept %v; it must return the delay instead", elapsed)
	}
	if cerr != nil {
		t.Fatalf("Check error: %v", cerr)
	}
	if d != 250*time.Millisecond {
		t.Fatalf("Check delay = %v, want 250ms", d)
	}
	if got := inj.Snapshot()["client.latency/delay"]; got != 1 {
		t.Fatalf("fired tally = %d, want 1", got)
	}
}

func TestCheckReturnsErrorAndDelayTogether(t *testing.T) {
	inj, err := Parse("seed=3,client.blackhole=error:1,client.blackhole=delay:1:5ms")
	if err != nil {
		t.Fatal(err)
	}
	d, cerr := inj.Check(SiteClientBlackhole)
	if !errors.Is(cerr, ErrInjected) {
		t.Fatalf("Check error = %v, want ErrInjected", cerr)
	}
	if d != 5*time.Millisecond {
		t.Fatalf("Check delay = %v, want 5ms", d)
	}
}

func TestCheckNilSafe(t *testing.T) {
	var inj *Injector
	if d, err := inj.Check(SiteClientLatency); d != 0 || err != nil {
		t.Fatalf("nil Check = (%v, %v)", d, err)
	}
	SetDefault(nil)
	if d, err := Check(SiteClientBlackhole); d != 0 || err != nil {
		t.Fatalf("package Check with no default = (%v, %v)", d, err)
	}
}
