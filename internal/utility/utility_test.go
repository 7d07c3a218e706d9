package utility

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinary(t *testing.T) {
	u := Binary{Beta: 2.5}
	if u.Value(2.5) != 1 || u.Value(100) != 1 {
		t.Fatal("binary should be 1 at and above β")
	}
	if u.Value(2.4999) != 0 || u.Value(0) != 0 {
		t.Fatal("binary should be 0 below β")
	}
	if u.Value(math.Inf(1)) != 1 {
		t.Fatal("binary at +Inf should be 1")
	}
}

func TestWeighted(t *testing.T) {
	u := Weighted{Beta: 1, W: 3.5}
	if u.Value(1) != 3.5 || u.Value(0.5) != 0 {
		t.Fatal("weighted threshold misbehaves")
	}
}

func TestShannon(t *testing.T) {
	u := Shannon{}
	if u.Value(0) != 0 {
		t.Fatalf("Shannon(0) = %g", u.Value(0))
	}
	if got, want := u.Value(1), math.Log(2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Shannon(1) = %g, want %g", got, want)
	}
	if !math.IsInf(u.Value(math.Inf(1)), 1) {
		t.Fatal("Shannon(+Inf) should be +Inf")
	}
	// log1p accuracy for tiny SINRs.
	if got := u.Value(1e-12); math.Abs(got-1e-12) > 1e-24 {
		t.Fatalf("Shannon(1e-12) = %g", got)
	}
}

func TestCappedShannon(t *testing.T) {
	u := CappedShannon{Cap: 7}
	if got, want := u.Value(100), math.Log1p(7); got != want {
		t.Fatalf("capped value = %g, want %g", got, want)
	}
	if got, want := u.Value(3), math.Log1p(3); got != want {
		t.Fatalf("uncapped region = %g, want %g", got, want)
	}
}

func TestFuncOf(t *testing.T) {
	u := FuncOf{F: func(x float64) float64 { return 2 * x }, Label: "double"}
	if u.Value(3) != 6 || u.Name() != "double" {
		t.Fatal("FuncOf misbehaves")
	}
}

func TestNames(t *testing.T) {
	for _, u := range []Func{Binary{Beta: 1}, Weighted{Beta: 1, W: 2}, Shannon{}, CappedShannon{Cap: 3}} {
		if u.Name() == "" {
			t.Fatalf("%T has empty name", u)
		}
	}
}

func TestSumSingleUtilityBroadcast(t *testing.T) {
	got := Sum(Uniform(Binary{Beta: 1}), []float64{0.5, 1, 2, 0})
	if got != 2 {
		t.Fatalf("Sum = %g, want 2", got)
	}
}

func TestSumPerLink(t *testing.T) {
	us := []Func{Binary{Beta: 1}, Weighted{Beta: 1, W: 5}}
	if got := Sum(us, []float64{2, 2}); got != 6 {
		t.Fatalf("Sum = %g, want 6", got)
	}
}

func TestSumPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Sum(nil, []float64{1}) },
		func() { Sum([]Func{Shannon{}, Shannon{}}, []float64{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Definition 1: the paper's utility families (binary, weighted, Shannon)
// are valid, so Theorem 2's transfer applies to each of them.
func TestCheckValidAcceptsPaperFamilies(t *testing.T) {
	// Binary utilities with β ≤ S̄ii/(c·ν) — the paper's first example.
	sii, nu := 1.0, 1e-3
	c := 2.0
	beta := sii / (c * nu) // exactly at the allowed maximum
	if rep := CheckValid(Binary{Beta: beta}, sii, nu, c); !rep.Valid {
		t.Fatalf("binary at threshold rejected: %s", rep.Reason)
	}
	if rep := CheckValid(Weighted{Beta: beta / 2, W: 10}, sii, nu, c); !rep.Valid {
		t.Fatalf("weighted rejected: %s", rep.Reason)
	}
	if rep := CheckValid(Shannon{}, sii, nu, c); !rep.Valid {
		t.Fatalf("Shannon rejected: %s", rep.Reason)
	}
	if rep := CheckValid(CappedShannon{Cap: 10}, sii, nu, c); !rep.Valid {
		t.Fatalf("capped Shannon rejected: %s", rep.Reason)
	}
}

func TestCheckValidRejectsBinaryAboveThreshold(t *testing.T) {
	// A binary utility whose jump sits far above S̄ii/(c·ν) is not
	// non-decreasing-and-concave on the interval: the step is a convex kink.
	sii, nu, c := 1.0, 1e-3, 2.0
	beta := 10 * sii / (c * nu)
	rep := CheckValid(Binary{Beta: beta}, sii, nu, c)
	if rep.Valid {
		t.Fatal("binary with jump inside the interval accepted")
	}
}

func TestCheckValidRejectsDecreasing(t *testing.T) {
	u := FuncOf{F: func(x float64) float64 { return 1 / (1 + x) }, Label: "decreasing"}
	if rep := CheckValid(u, 1, 1e-3, 2); rep.Valid {
		t.Fatal("decreasing function accepted")
	}
}

func TestCheckValidRejectsConvex(t *testing.T) {
	u := FuncOf{F: func(x float64) float64 { return x * x }, Label: "convex"}
	if rep := CheckValid(u, 1, 1e-3, 2); rep.Valid {
		t.Fatal("convex function accepted")
	}
}

func TestCheckValidRejectsNegative(t *testing.T) {
	u := FuncOf{F: func(x float64) float64 { return math.Log(x) }, Label: "log"} // negative for x<1
	rep := CheckValid(u, 1, 100, 2)                                              // threshold far below 1
	if rep.Valid {
		t.Fatal("negative-valued function accepted")
	}
}

func TestCheckValidZeroNoise(t *testing.T) {
	// With ν = 0 the interval is all of (0,∞); Shannon passes, x² fails.
	if rep := CheckValid(Shannon{}, 1, 0, 2); !rep.Valid {
		t.Fatalf("Shannon with ν=0 rejected: %s", rep.Reason)
	}
	if rep := CheckValid(FuncOf{F: func(x float64) float64 { return x * x }, Label: "sq"}, 1, 0, 2); rep.Valid {
		t.Fatal("x² with ν=0 accepted")
	}
}

func TestCheckValidRejectsBadParameters(t *testing.T) {
	if rep := CheckValid(Shannon{}, 1, 1, 1); rep.Valid {
		t.Fatal("c = 1 accepted")
	}
	if rep := CheckValid(Shannon{}, 0, 1, 2); rep.Valid {
		t.Fatal("sii = 0 accepted")
	}
}

func TestCheckValidThresholdValue(t *testing.T) {
	rep := CheckValid(Shannon{}, 4, 2, 2)
	if got, want := rep.Threshold, 1.0; got != want {
		t.Fatalf("Threshold = %g, want %g", got, want)
	}
}

// The paper's validity condition for binary utilities,
// β ≤ min_i S̄(i,i)/(c·ν), holds at the Figure-1 settings and always when
// ν = 0 (Figure 2).
func TestBinaryValidFor(t *testing.T) {
	// Paper Figure 1: β=2.5, p=2, d∈[20,40], α=2.2, ν=4e-7. Weakest link:
	// sii = 2/40^2.2 ≈ 6.1e-4, sii/(β·ν) ≈ 610 ≫ 1 — valid.
	sii := 2 / math.Pow(40, 2.2)
	if !BinaryValidFor(2.5, sii, 4e-7) {
		t.Fatal("Figure-1 parameters should be interference-dominated")
	}
	// Huge noise: invalid.
	if BinaryValidFor(2.5, sii, 1) {
		t.Fatal("noise-dominated case should be rejected")
	}
	// ν = 0 always valid (Figure 2).
	if !BinaryValidFor(0.5, 1e-9, 0) {
		t.Fatal("ν = 0 must always be valid")
	}
	if !BinaryValidFor(0, sii, 1) {
		t.Fatal("β = 0 must always be valid")
	}
}

// Property: all paper families are monotone non-decreasing in the SINR.
func TestQuickMonotone(t *testing.T) {
	us := []Func{Binary{Beta: 2.5}, Weighted{Beta: 1, W: 4}, Shannon{}, CappedShannon{Cap: 5}}
	f := func(aRaw, bRaw float64) bool {
		if math.IsNaN(aRaw) || math.IsNaN(bRaw) {
			return true
		}
		a := math.Abs(math.Mod(aRaw, 1e6))
		b := math.Abs(math.Mod(bRaw, 1e6))
		if a > b {
			a, b = b, a
		}
		for _, u := range us {
			if u.Value(a) > u.Value(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilities are non-negative on all non-negative SINRs.
func TestQuickNonNegative(t *testing.T) {
	us := []Func{Binary{Beta: 2.5}, Weighted{Beta: 1, W: 4}, Shannon{}, CappedShannon{Cap: 5}}
	f := func(xRaw float64) bool {
		if math.IsNaN(xRaw) {
			return true
		}
		x := math.Abs(xRaw)
		for _, u := range us {
			if u.Value(x) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShannonValue(b *testing.B) {
	u := Shannon{}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += u.Value(float64(i % 100))
	}
	_ = sink
}

func BenchmarkCheckValid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CheckValid(Shannon{}, 1, 1e-3, 2)
	}
}
