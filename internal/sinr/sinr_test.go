package sinr

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// mat builds a Matrix from rows (G[j][i]) and noise, failing the test on error.
func mat(t testing.TB, g [][]float64, noise float64) *network.Matrix {
	t.Helper()
	m, err := network.NewMatrix(g, noise)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mat2 is a two-link instance: strong own signals, weak cross gains.
func mat2(t testing.TB) *network.Matrix {
	return mat(t, [][]float64{
		{1.0, 0.1}, // sender 0 at receivers 0,1
		{0.2, 2.0}, // sender 1 at receivers 0,1
	}, 0.05)
}

func randomMatrix(t testing.TB, seed uint64, n int) *network.Matrix {
	t.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net.Gains()
}

func TestValueBothActive(t *testing.T) {
	m := mat2(t)
	active := []bool{true, true}
	// γ_0 = 1 / (0.2 + 0.05) = 4; γ_1 = 2 / (0.1 + 0.05) ≈ 13.33.
	if got := Value(m, active, 0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("γ_0 = %g, want 4", got)
	}
	if got := Value(m, active, 1); math.Abs(got-2/0.15) > 1e-12 {
		t.Fatalf("γ_1 = %g, want %g", got, 2/0.15)
	}
}

func TestValueSolo(t *testing.T) {
	m := mat2(t)
	// Alone, only noise interferes: γ_0 = 1/0.05 = 20.
	if got := Value(m, []bool{true, false}, 0); math.Abs(got-20) > 1e-12 {
		t.Fatalf("solo γ_0 = %g, want 20", got)
	}
}

func TestValueInactiveLinkIsZero(t *testing.T) {
	m := mat2(t)
	if got := Value(m, []bool{false, true}, 0); got != 0 {
		t.Fatalf("inactive link SINR = %g, want 0", got)
	}
}

func TestValueInfiniteWithoutNoiseOrInterference(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {0, 1}}, 0)
	if got := Value(m, []bool{true, false}, 0); !math.IsInf(got, 1) {
		t.Fatalf("noise-free solo SINR = %g, want +Inf", got)
	}
}

// With no noise and no interference, a link with a positive own gain has
// SINR +Inf and one with a zero own gain has SINR 0, in every evaluation.
func TestZeroInterferenceEdge(t *testing.T) {
	m := mat(t, [][]float64{
		{1, 0, 0.5},
		{0, 0, 0},
		{0.5, 0, 1},
	}, 0)
	for _, tc := range []struct {
		active []bool
		i      int
		want   float64
	}{
		{[]bool{true, false, false}, 0, math.Inf(1)},
		{[]bool{true, true, false}, 0, math.Inf(1)},
		{[]bool{true, true, false}, 1, 0},
		{[]bool{false, true, false}, 1, 0},
		{[]bool{true, true, true}, 1, 0},
	} {
		idx := ActiveList(tc.active, nil)
		k, _ := slices.BinarySearch(idx, tc.i)
		for name, got := range map[string]float64{
			"Value":      Value(m, tc.active, tc.i),
			"ValuesInto": Values(m, tc.active)[tc.i],
			"SINRAt":     SINRAt(m, idx, k, tc.i),
		} {
			if got != tc.want {
				t.Errorf("active=%v: %s of link %d = %g, want %g", tc.active, name, tc.i, got, tc.want)
			}
		}
	}
	acc := NewAccumulator(m)
	acc.Add(1)
	if got := acc.SINR(1); got != 0 {
		t.Errorf("Accumulator SINR of a lone zero-gain link = %g, want 0", got)
	}
	if Feasible(m, []int{1}, 2.5) || !Feasible(m, []int{0}, 1e300) {
		t.Error("Feasible disagrees with the zero-interference edge")
	}
}

// SINRAt equals ValuesInto bit for bit on active links, and on an idle link
// equals the SINR ValuesInto gives it once it joins the set.
func TestSINRAtMatchesValue(t *testing.T) {
	m := randomMatrix(t, 6, 30)
	src := rng.New(78)
	active := make([]bool, m.N)
	joined := make([]bool, m.N)
	vals := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	for trial := 0; trial < 40; trial++ {
		for i := range active {
			active[i] = src.Bernoulli(float64(trial) / 40)
		}
		idx = ActiveList(active, idx)
		ValuesInto(m, active, vals)
		k := 0
		for i, a := range active {
			got := SINRAt(m, idx, k, i)
			want := vals[i]
			if !a {
				copy(joined, active)
				joined[i] = true
				want = Value(m, joined, i)
			} else {
				k++
			}
			if got != want {
				t.Fatalf("trial %d link %d (active %v): SINRAt %g, want %g", trial, i, a, got, want)
			}
		}
	}
}

// TestCountNonFadingMatchesValues pins the non-fading success count —
// CountSuccesses over ActiveList, as Figure 1 counts, and AppendSuccesses'
// list — to the count of
// links whose ValuesInto SINR reaches β, over densities from 0 to 1,
// matrices with zero gains, no noise with a lone sender (SINR +Inf) and
// thresholds 0, 2.5, +Inf and NaN.
func TestCountNonFadingMatchesValues(t *testing.T) {
	cfg := network.Figure1Config()
	cfg.N = 60
	net, err := network.Random(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	zeroed := net.Gains()
	for j := 0; j < zeroed.N; j += 3 {
		for i := 0; i < zeroed.N; i += 2 {
			zeroed.SetGain(j, i, 0)
		}
	}
	noiseless := net.Gains()
	noiseless.Noise = 0
	setup := rng.New(4)
	vals := make([]float64, cfg.N)
	idx := make([]int, 0, cfg.N)
	ok := make([]int, 0, cfg.N)
	count := func(m *network.Matrix, active []bool, beta float64) int {
		idx = ActiveList(active, idx)
		n := CountSuccesses(m, idx, beta)
		if listed := len(AppendSuccesses(ok[:0], m, idx, beta)); listed != n {
			t.Fatalf("ν=%g β=%g: CountSuccesses %d, AppendSuccesses lists %d", m.Noise, beta, n, listed)
		}
		return n
	}
	active := make([]bool, cfg.N)
	lone := make([]bool, cfg.N)
	lone[7] = true
	for _, m := range []*network.Matrix{net.Gains(), zeroed, noiseless} {
		for _, beta := range []float64{0, 2.5, math.Inf(1), math.NaN()} {
			check := func(active []bool) {
				t.Helper()
				want := 0
				for i, v := range ValuesInto(m, active, vals) {
					if active[i] && v >= beta {
						want++
					}
				}
				if got := count(m, active, beta); got != want {
					t.Fatalf("ν=%g β=%g active=%v: count %d, ValuesInto rule %d", m.Noise, beta, active, got, want)
				}
			}
			for d := 0; d <= 20; d++ {
				for trial := 0; trial < 5; trial++ {
					for i := range active {
						active[i] = setup.Bernoulli(float64(d) / 20)
					}
					check(active)
				}
			}
			check(lone)
		}
	}
	if got := count(noiseless, lone, math.Inf(1)); got != 1 {
		t.Fatalf("a lone sender without noise: count %d at β = +Inf, want 1", got)
	}
}

// The non-fading decision allocates nothing once its scratch is sized.
func TestDecisionAllocationFree(t *testing.T) {
	m := randomMatrix(t, 14, 100)
	src := rng.New(15)
	active := make([]bool, m.N)
	idx := make([]int, 0, m.N)
	ok := make([]int, 0, m.N)
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		for i := range active {
			active[i] = src.Bernoulli(density)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			idx = ActiveList(active, idx)
			CountSuccesses(m, idx, 2.5)
			ok = AppendSuccesses(ok[:0], m, idx, 2.5)
			SINRAt(m, idx, 0, 0)
		}); allocs != 0 {
			t.Errorf("ActiveList, CountSuccesses, AppendSuccesses and SINRAt at density %.1f allocate %.1f objects per run", density, allocs)
		}
	}
}

// Values agrees with Value, the direct evaluation of the SINR definition.
func TestValuesMatchesValue(t *testing.T) {
	m := randomMatrix(t, 5, 20)
	src := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		active := make([]bool, m.N)
		for i := range active {
			active[i] = src.Bernoulli(0.4)
		}
		vals := Values(m, active)
		for i := range active {
			if want := Value(m, active, i); math.Abs(vals[i]-want) > 1e-12*(1+want) {
				t.Fatalf("Values[%d] = %g, Value = %g", i, vals[i], want)
			}
		}
	}
}

func TestSetToActiveRoundTrip(t *testing.T) {
	active := SetToActive(5, []int{0, 3, 4})
	want := []bool{true, false, false, true, true}
	for i := range want {
		if active[i] != want[i] {
			t.Fatalf("SetToActive = %v", active)
		}
	}
	set := ActiveList(active, nil)
	if len(set) != 3 || set[0] != 0 || set[1] != 3 || set[2] != 4 {
		t.Fatalf("ActiveList = %v", set)
	}
}

func TestSetToActivePanics(t *testing.T) {
	for _, set := range [][]int{{-1}, {5}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetToActive(%v) did not panic", set)
				}
			}()
			SetToActive(5, set)
		}()
	}
}

func TestSuccessesAndCount(t *testing.T) {
	m := mat2(t)
	active := []bool{true, true}
	// γ_0 = 4, γ_1 ≈ 13.3.
	for _, tc := range []struct {
		beta float64
		want []int
	}{
		{5, []int{1}},
		{3, []int{0, 1}},
		{100, nil},
	} {
		if got := AppendSuccesses(nil, m, ActiveList(active, nil), tc.beta); !slices.Equal(got, tc.want) {
			t.Fatalf("AppendSuccesses(β=%g) = %v, want %v", tc.beta, got, tc.want)
		}
	}
}

func TestFeasible(t *testing.T) {
	m := mat2(t)
	if !Feasible(m, nil, 2.5) {
		t.Fatal("empty set must be feasible")
	}
	if !Feasible(m, []int{0}, 2.5) {
		t.Fatal("singleton 0 should be feasible (solo SINR 20)")
	}
	if !Feasible(m, []int{0, 1}, 3) {
		t.Fatal("{0,1} should be feasible at β=3")
	}
	if Feasible(m, []int{0, 1}, 5) {
		t.Fatal("{0,1} should be infeasible at β=5 (γ_0=4)")
	}
}

func TestFeasibleSubsetMonotone(t *testing.T) {
	// Removing links can only raise SINRs: any subset of a feasible set is
	// feasible. Property-test on random instances.
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 12)
		src := rng.New(seed ^ 0xabc)
		set := []int{}
		for i := 0; i < m.N; i++ {
			if src.Bernoulli(0.35) {
				set = append(set, i)
			}
		}
		if !Feasible(m, set, 2.5) {
			return true // premise not met
		}
		sub := []int{}
		for _, i := range set {
			if src.Bernoulli(0.5) {
				sub = append(sub, i)
			}
		}
		return Feasible(m, sub, 2.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAffectanceBasics(t *testing.T) {
	m := mat2(t)
	beta := 2.0
	// a(1,0) = β·S̄(1,0)/(S̄(0,0) − β·ν) = 2·0.2/(1 − 0.1) = 4/9.
	if got, want := Affectance(m, beta, 1, 0), 0.4/0.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("a(1,0) = %g, want %g", got, want)
	}
	if got := Affectance(m, beta, 0, 0); got != 0 {
		t.Fatalf("self-affectance = %g", got)
	}
}

func TestAffectanceCapped(t *testing.T) {
	m := mat(t, [][]float64{
		{1, 50},
		{50, 1},
	}, 0)
	if got := Affectance(m, 1, 1, 0); got != 1 {
		t.Fatalf("huge interferer affectance = %g, want cap 1", got)
	}
}

func TestAffectanceNoiseDominated(t *testing.T) {
	// S̄(i,i) ≤ β·ν: the link cannot reach β even alone; affectance is 1.
	m := mat(t, [][]float64{
		{0.5, 0},
		{0, 0.5},
	}, 1)
	if got := Affectance(m, 1, 1, 0); got != 1 {
		t.Fatalf("noise-dominated affectance = %g, want 1", got)
	}
}

// The defining property: link i (with others in set S) satisfies the SINR
// constraint at β exactly when Σ_{j∈S} AffectanceUncapped(j,i) ≤ 1.
func TestAffectanceCharacterizesFeasibility(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 10)
		src := rng.New(seed ^ 0x123)
		beta := 2.5
		var set []int
		for i := 0; i < m.N; i++ {
			if src.Bernoulli(0.3) {
				set = append(set, i)
			}
		}
		if len(set) == 0 {
			return true
		}
		active := SetToActive(m.N, set)
		vals := Values(m, active)
		for _, i := range set {
			sum := 0.0
			for _, j := range set {
				if j != i {
					sum += AffectanceUncapped(m, beta, j, i)
				}
			}
			satisfied := vals[i] >= beta
			// Exact characterization up to float round-off at the boundary.
			if satisfied && sum > 1+1e-9 {
				return false
			}
			if !satisfied && sum < 1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Capped affectance never exceeds the uncapped value and never exceeds 1.
func TestAffectanceCapRelation(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 8)
		for j := 0; j < m.N; j++ {
			for i := 0; i < m.N; i++ {
				capped := Affectance(m, 2.5, j, i)
				raw := AffectanceUncapped(m, 2.5, j, i)
				if capped > 1 || capped > raw+1e-15 || capped < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FeasibleByAffectance must agree with the direct SINR check on random
// instances (away from the measure-zero boundary).
func TestQuickFeasibleByAffectanceAgrees(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 10)
		src := rng.New(seed * 31)
		var set []int
		for i := 0; i < m.N; i++ {
			if src.Bernoulli(0.3) {
				set = append(set, i)
			}
		}
		return Feasible(m, set, 2.5) == FeasibleByAffectance(m, set, 2.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleByAffectanceAgreesWhenUncapped(t *testing.T) {
	m := mat2(t)
	if !FeasibleByAffectance(m, []int{0, 1}, 3) {
		t.Fatal("affectance feasibility should accept {0,1} at β=3")
	}
	if FeasibleByAffectance(m, []int{0, 1}, 5) {
		t.Fatal("affectance feasibility should reject {0,1} at β=5")
	}
}

// The self term contributes nothing to a link's affectance sum, the form
// FeasibleByAffectance evaluates over a set: a(i,i) = 0.
func TestAffectanceSum(t *testing.T) {
	m := mat2(t)
	if got := Affectance(m, 2, 0, 0); got != 0 {
		t.Fatalf("a(0,0) = %g, want 0", got)
	}
	if got := Affectance(m, 2, 1, 0); got <= 0 {
		t.Fatalf("a(1,0) = %g, want positive", got)
	}
}

func TestAccumulatorMatchesDirect(t *testing.T) {
	m := randomMatrix(t, 21, 15)
	acc := NewAccumulator(m)
	src := rng.New(99)
	activeSet := map[int]bool{}
	for step := 0; step < 200; step++ {
		j := src.Intn(m.N)
		if activeSet[j] {
			acc.Remove(j)
			delete(activeSet, j)
		} else {
			acc.Add(j)
			activeSet[j] = true
		}
		// Compare a random link's SINR against the direct computation.
		i := src.Intn(m.N)
		active := make([]bool, m.N)
		for k := range activeSet {
			active[k] = true
		}
		var want float64
		if active[i] {
			want = Value(m, active, i)
		} else {
			// Joining SINR: activate i temporarily.
			active[i] = true
			want = Value(m, active, i)
		}
		got := acc.SINR(i)
		if math.IsInf(want, 1) != math.IsInf(got, 1) ||
			(!math.IsInf(want, 1) && math.Abs(got-want) > 1e-9*(1+want)) {
			t.Fatalf("step %d: accumulator SINR(%d) = %g, want %g", step, i, got, want)
		}
	}
}

func TestAccumulatorBookkeeping(t *testing.T) {
	m := mat2(t)
	acc := NewAccumulator(m)
	if acc.Count() != 0 || acc.active[0] {
		t.Fatal("fresh accumulator not empty")
	}
	acc.Add(0)
	acc.Add(1)
	if acc.Count() != 2 || !acc.active[1] {
		t.Fatal("adds not recorded")
	}
	if got := acc.Set(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Set = %v", got)
	}
	acc.Remove(0)
	if acc.Count() != 1 || acc.active[0] {
		t.Fatal("remove not recorded")
	}
}

func TestAccumulatorPanics(t *testing.T) {
	m := mat2(t)
	acc := NewAccumulator(m)
	acc.Add(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Add did not panic")
			}
		}()
		acc.Add(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Remove of inactive did not panic")
			}
		}()
		acc.Remove(1)
	}()
}

// With both links of the fixture active, every active link reaches β = 3
// but not β = 5 (γ_0 = 4).
func TestAccumulatorAllFeasible(t *testing.T) {
	m := mat2(t)
	acc := NewAccumulator(m)
	acc.Add(0)
	acc.Add(1)
	if acc.SINR(0) < 3 || acc.SINR(1) < 3 {
		t.Fatalf("SINRs %g, %g: both links should reach 3", acc.SINR(0), acc.SINR(1))
	}
	if acc.SINR(0) >= 5 {
		t.Fatalf("γ_0 = %g should miss 5", acc.SINR(0))
	}
}

// Removing an interferer never lowers anyone's SINR.
func TestQuickRemovalMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 10)
		src := rng.New(seed + 1)
		active := make([]bool, m.N)
		var on []int
		for i := range active {
			if src.Bernoulli(0.5) {
				active[i] = true
				on = append(on, i)
			}
		}
		if len(on) < 2 {
			return true
		}
		before := Values(m, active)
		drop := on[src.Intn(len(on))]
		active[drop] = false
		after := Values(m, active)
		for i := range active {
			if active[i] && after[i] < before[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkValues100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	active := make([]bool, m.N)
	for i := range active {
		active[i] = i%2 == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Values(m, active)
	}
}

func BenchmarkAccumulatorAdd100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewAccumulator(m)
		for j := 0; j < m.N; j++ {
			acc.Add(j)
		}
	}
}

// TestBudgetProperties drives random TryAdd/Remove sequences on paper-
// geometry networks and checks the Budget against a plain model of the set.
// β 3000 sits inside the spread of Own(i)/ν at ν = 4e-7, so about half the
// links fail the alone-rule there.
func TestBudgetProperties(t *testing.T) {
	rejectedAlone := 0
	for seed := uint64(1); seed <= 24; seed++ {
		for _, noise := range []float64{4e-7, 0} {
			cfg := network.Figure1Config()
			cfg.N = 10 + int(seed%15)
			cfg.Noise = noise
			net, err := network.Random(cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			m := net.Gains()
			beta := []float64{0.5, 2.5, 6, 3000}[seed%4]
			for i := 0; i < m.N; i++ {
				if Alone(m, i, beta) != Feasible(m, []int{i}, beta) {
					t.Fatalf("seed %d ν %g: Alone(%d) disagrees with Feasible({%d})", seed, noise, i, i)
				}
			}
			for _, tau := range []float64{0.5, 1} {
				b := NewBudget(m, beta, tau)
				src := rng.New(seed ^ 0x5eed)
				var model []int // the members in insertion order
				for step := 0; step < 300; step++ {
					i := src.Intn(m.N)
					member := slices.Contains(model, i)
					switch {
					case member && src.Float64() < 0.5:
						b.Remove(i)
						model = slices.DeleteFunc(model, func(j int) bool { return j == i })
					case b.TryAdd(i):
						if member {
							t.Fatalf("seed %d: TryAdd admitted member %d twice", seed, i)
						}
						if !Alone(m, i, beta) {
							t.Fatalf("seed %d: admitted %d, which fails alone", seed, i)
						}
						model = append(model, i)
					case !Alone(m, i, beta):
						rejectedAlone++
					}
					got := b.Members()
					if !slices.Equal(got, model) {
						t.Fatalf("seed %d step %d: members %v, want %v in insertion order", seed, step, got, model)
					}
					if tau == 1 && !Feasible(m, got, beta) {
						t.Fatalf("seed %d step %d: τ = 1 members %v infeasible", seed, step, got)
					}
					if tau < 1 {
						for _, i := range got {
							sum := 0.0
							for _, j := range got {
								sum += AffectanceUncapped(m, beta, j, i)
							}
							// The budget's loads are kept incrementally, so a
							// direct re-sum may differ from them in the last bits.
							if sum > tau*(1+1e-12) {
								t.Fatalf("seed %d step %d: member %d takes affectance %g > τ = %g", seed, step, i, sum, tau)
							}
						}
					}
				}
			}
		}
	}
	if rejectedAlone == 0 {
		t.Fatal("no TryAdd was refused by the alone-rule: the property is untested")
	}
}

func TestBudgetRemoveNonMemberPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of a non-member did not panic")
		}
	}()
	NewBudget(mat2(t), 1, 1).Remove(0)
}
