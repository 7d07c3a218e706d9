package sinr

import (
	"math"
	"testing"
	"testing/quick"

	"rayfade/internal/rng"
)

func TestSignalStrengthBasics(t *testing.T) {
	m := mat2(t) // γ_0 = 4, γ_1 ≈ 13.33 with both active, noise 0.05
	got := SignalStrength(m, []int{0, 1}, 2.0)
	if math.Abs(got-2.0) > 1e-12 { // min(4,13.3)/2
		t.Fatalf("strength = %g, want 2", got)
	}
	if s := SignalStrength(m, nil, 2.0); !math.IsInf(s, 1) {
		t.Fatalf("empty set strength = %g", s)
	}
	// Feasibility iff strength ≥ 1.
	if Feasible(m, []int{0, 1}, 3) != (SignalStrength(m, []int{0, 1}, 3) >= 1) {
		t.Fatal("strength and feasibility disagree at β=3")
	}
	if Feasible(m, []int{0, 1}, 5) != (SignalStrength(m, []int{0, 1}, 5) >= 1) {
		t.Fatal("strength and feasibility disagree at β=5")
	}
}

func TestSignalStrengthPanics(t *testing.T) {
	m := mat2(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SignalStrength(m, []int{0}, 0)
}

// Signal strengthening: PartitionToSignal splits a set into parts that
// each have SignalStrength at least p, covering the set exactly once.
func TestPartitionToSignalCovers(t *testing.T) {
	m := randomMatrix(t, 61, 40)
	beta := 2.5
	// Start from a feasible greedy-ish set: all links alone viable here.
	set := make([]int, m.N)
	for i := range set {
		set[i] = i
	}
	parts, err := PartitionToSignal(m, set, beta, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Partition covers exactly the set, no duplicates.
	seen := map[int]bool{}
	total := 0
	for _, part := range parts {
		for _, i := range part {
			if seen[i] {
				t.Fatalf("link %d in two parts", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != len(set) {
		t.Fatalf("partition covers %d of %d links", total, len(set))
	}
	// Every part is a 2-signal set.
	for k, part := range parts {
		if s := SignalStrength(m, part, beta); s < 2-1e-9 {
			t.Fatalf("part %d strength %g < 2", k, s)
		}
	}
}

func TestPartitionToSignalPartCountScalesWithP(t *testing.T) {
	m := randomMatrix(t, 63, 60)
	set := make([]int, m.N)
	for i := range set {
		set[i] = i
	}
	count := func(p float64) int {
		parts, err := PartitionToSignal(m, set, 2.5, p)
		if err != nil {
			t.Fatal(err)
		}
		return len(parts)
	}
	c1, c4 := count(1), count(4)
	if c4 < c1 {
		t.Fatalf("stronger requirement needs fewer parts: p=1→%d, p=4→%d", c1, c4)
	}
	// Sanity: neither degenerates to one-part-per-link unless forced.
	if c1 >= m.N {
		t.Fatalf("p=1 used %d parts for %d links", c1, m.N)
	}
}

func TestPartitionToSignalErrors(t *testing.T) {
	m := mat2(t)
	if _, err := PartitionToSignal(m, []int{0}, 2.5, 0.5); err == nil {
		t.Fatal("p < 1 accepted")
	}
	if _, err := PartitionToSignal(m, []int{7}, 2.5, 1); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	// Noise-dominated link: strength target unreachable even alone.
	noisy := mat(t, [][]float64{{1, 0}, {0, 1}}, 1)
	if _, err := PartitionToSignal(noisy, []int{0}, 2.5, 1); err == nil {
		t.Fatal("noise-dominated link accepted")
	}
	// Without noise, a link with a zero own gain has SINR 0 even alone.
	deaf := mat(t, [][]float64{{1, 0}, {0, 0}}, 0)
	if _, err := PartitionToSignal(deaf, []int{0, 1}, 2.5, 1); err == nil {
		t.Fatal("zero-gain link accepted without noise")
	}
}

// Property: all parts of any partition are feasible (strength ≥ p ≥ 1
// implies feasibility), across random instances.
func TestQuickPartitionPartsFeasible(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		m := randomMatrix(t, seed, 20)
		p := 1 + float64(pRaw%4)
		set := make([]int, m.N)
		for i := range set {
			set[i] = i
		}
		parts, err := PartitionToSignal(m, set, 2.5, p)
		if err != nil {
			return true // noise-dominated instance; nothing to check
		}
		for _, part := range parts {
			if !Feasible(m, part, 2.5) {
				return false
			}
			if SignalStrength(m, part, 2.5) < p-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Stronger sets survive Rayleigh fading better: compare the per-link exact
// success probability of a 4-signal part against a barely-feasible set.
func TestSignalStrengthImprovesFadingSurvival(t *testing.T) {
	m := randomMatrix(t, 65, 30)
	beta := 2.5
	set := make([]int, m.N)
	for i := range set {
		set[i] = i
	}
	parts4, err := PartitionToSignal(m, set, beta, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The strength-4 parts must give every member SINR ≥ 4β, so under
	// Rayleigh the Lemma-1 lower bound gives success probability at least
	// exp(-1/4) for threshold β.
	for _, part := range parts4 {
		active := SetToActive(m.N, part)
		vals := Values(m, active)
		for _, i := range part {
			if vals[i] < 4*beta-1e-9 {
				t.Fatalf("part member %d has SINR %g < 4β", i, vals[i])
			}
		}
	}
}

// Lemma 7 (via Lemma 8 of Ásgeirsson–Mitra): every feasible set has a
// half-sized core of links whose outgoing affectance is at most 2.
func TestQuickLemma7HalfCore(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 20)
		src := rng.New(seed ^ 0x321)
		var set []int
		for i := 0; i < m.N; i++ {
			if src.Bernoulli(0.4) {
				set = append(set, i)
			}
		}
		if !Feasible(m, set, 2.5) {
			return true // lemma premise requires feasibility
		}
		core := LowOutAffectanceCore(m, set, 2.5, 2)
		return 2*len(core) >= len(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// With a feasible greedy set the lemma holds too, and shrinking the bound
// shrinks the core monotonically.
func TestLowOutAffectanceCoreMonotone(t *testing.T) {
	m := randomMatrix(t, 81, 40)
	set := make([]int, 0, m.N)
	for i := 0; i < m.N; i++ {
		if Feasible(m, append(set, i), 2.5) {
			set = append(set, i)
		}
	}
	if len(set) < 4 {
		t.Skip("instance too tight")
	}
	loose := LowOutAffectanceCore(m, set, 2.5, 4)
	tight := LowOutAffectanceCore(m, set, 2.5, 0.5)
	if len(tight) > len(loose) {
		t.Fatalf("tight bound core %d exceeds loose %d", len(tight), len(loose))
	}
	if half := LowOutAffectanceCore(m, set, 2.5, 2); 2*len(half) < len(set) {
		t.Fatalf("Lemma-7 core %d below half of %d", len(half), len(set))
	}
}

func TestLowOutAffectanceCorePanics(t *testing.T) {
	m := mat2(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LowOutAffectanceCore(m, []int{0}, 2.5, 0)
}

func BenchmarkPartitionToSignal60(b *testing.B) {
	m := randomMatrix(b, 1, 60)
	set := make([]int, m.N)
	for i := range set {
		set[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionToSignal(m, set, 2.5, 2); err != nil {
			b.Fatal(err)
		}
	}
}
