package fading

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/utility"
)

func mat(t testing.TB, g [][]float64, noise float64) *network.Matrix {
	t.Helper()
	m, err := network.NewMatrix(g, noise)
	if err != nil {
		t.Fatal(err)
	}
	return m
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

func randomProbs(src *rng.Source, n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = src.Float64()
	}
	return q
}

// Solo link, only noise: Theorem 1 collapses to Q = q·exp(−βν/S̄ii), the
// exponential tail probability.
func TestExactSuccessSoloLink(t *testing.T) {
	m := mat(t, [][]float64{{2}}, 0.5)
	got := ExactSuccess(m, []float64{1}, 3, 0)
	want := math.Exp(-3 * 0.5 / 2)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("solo Q = %g, want %g", got, want)
	}
}

// Two links, both transmitting, no noise: Q_0 = 1/(1 + β·S̄(1,0)/S̄(0,0)),
// the classical two-user Rayleigh outage formula.
func TestExactSuccessTwoLinksNoNoise(t *testing.T) {
	m := mat(t, [][]float64{{1, 0.3}, {0.5, 1}}, 0)
	beta := 2.0
	got := ExactSuccess(m, []float64{1, 1}, beta, 0)
	want := 1 / (1 + beta*0.5/1)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("Q_0 = %g, want %g", got, want)
	}
}

func TestExactSuccessZeroTransmitProbability(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {0, 1}}, 0)
	if got := ExactSuccess(m, []float64{0, 1}, 1, 0); got != 0 {
		t.Fatalf("Q with q_i=0 should be 0, got %g", got)
	}
}

func TestExactSuccessSilentInterferers(t *testing.T) {
	// Interferers with q_j = 0 contribute nothing.
	m := mat(t, [][]float64{{1, 0.9}, {0.9, 1}}, 0.1)
	qSolo := ExactSuccess(m, []float64{1, 0}, 2, 0)
	soloWant := math.Exp(-2 * 0.1 / 1)
	if math.Abs(qSolo-soloWant) > 1e-15 {
		t.Fatalf("silent interferer: Q = %g, want %g", qSolo, soloWant)
	}
}

func TestExactSuccessZeroGainInterferer(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {0, 1}}, 0)
	if got := ExactSuccess(m, []float64{1, 1}, 5, 0); got != 1 {
		t.Fatalf("zero-gain interferer: Q = %g, want 1", got)
	}
}

func TestExactSuccessZeroOwnGain(t *testing.T) {
	m := mat(t, [][]float64{{0, 0}, {0, 1}}, 0)
	if got := ExactSuccess(m, []float64{1, 1}, 1, 0); got != 0 {
		t.Fatalf("zero own gain: Q = %g, want 0", got)
	}
}

func TestExactSuccessPanics(t *testing.T) {
	m := mat(t, [][]float64{{1}}, 0)
	for _, fn := range []func(){
		func() { ExactSuccess(m, []float64{0.5, 0.5}, 1, 0) }, // wrong length
		func() { ExactSuccess(m, []float64{1.5}, 1, 0) },      // not a probability
		func() { ExactSuccess(m, []float64{0.5}, 0, 0) },      // β = 0
		func() { ExactSuccess(m, []float64{0.5}, -1, 0) },     // β < 0
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

func TestExactSuccessLogMatches(t *testing.T) {
	m := randomMatrix(t, 3, 30)
	src := rng.New(4)
	q := randomProbs(src, m.N)
	for i := 0; i < m.N; i++ {
		p := ExactSuccess(m, q, 2.5, i)
		lp := ExactSuccessLog(m, q, 2.5, i)
		if p == 0 {
			if !math.IsInf(lp, -1) {
				t.Fatalf("link %d: p=0 but log=%g", i, lp)
			}
			continue
		}
		if math.Abs(math.Exp(lp)-p) > 1e-12*(1+p) {
			t.Fatalf("link %d: exp(log Q)=%g, Q=%g", i, math.Exp(lp), p)
		}
	}
}

func TestExactSuccessLogZeroCases(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {0, 1}}, 0)
	if lp := ExactSuccessLog(m, []float64{0, 1}, 1, 0); !math.IsInf(lp, -1) {
		t.Fatalf("log Q with q_i = 0 should be -Inf, got %g", lp)
	}
}

// Two independent derivations of Theorem 1 — the closed-form product and
// the subset-enumeration over conditional exponentials — must agree to
// machine precision on every instance.
func TestExactSuccessMatchesEnumeration(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 10)
		src := rng.New(seed ^ 0x777)
		q := randomProbs(src, m.N)
		beta := 0.2 + 5*src.Float64()
		for i := 0; i < m.N; i++ {
			a := ExactSuccess(m, q, beta, i)
			b := ExactSuccessEnumerated(m, q, beta, i)
			if math.Abs(a-b) > 1e-12*(1+a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExactSuccessEnumeratedPanics(t *testing.T) {
	big := randomMatrix(t, 1, 26)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExactSuccessEnumerated(big, UniformProbs(26, 0.5), 2.5, 0)
}

// Theorem 1 against brute-force Monte Carlo on a moderate instance.
func TestTheorem1MatchesMonteCarlo(t *testing.T) {
	m := randomMatrix(t, 11, 8)
	src := rng.New(100)
	q := []float64{1, 0.7, 0.3, 1, 0, 0.5, 0.9, 0.2}
	beta := 2.5
	for _, i := range []int{0, 3, 6} {
		exact := ExactSuccess(m, q, beta, i)
		mc := SuccessProbabilityMC(m, q, beta, i, 200000, src)
		tol := 4*mc.StdErr + 1e-4
		if math.Abs(mc.Mean-exact) > tol {
			t.Fatalf("link %d: MC %g ± %g vs exact %g", i, mc.Mean, mc.StdErr, exact)
		}
	}
}

// Lemma 1: lower ≤ exact ≤ upper, on random geometric instances with random
// probability vectors.
func TestLemma1BoundsBracketExact(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 15)
		src := rng.New(seed ^ 0x5a5a)
		q := randomProbs(src, m.N)
		beta := 0.5 + 4*src.Float64()
		for i := 0; i < m.N; i++ {
			exact := ExactSuccess(m, q, beta, i)
			lo := LowerBound(m, q, beta, i)
			hi := UpperBound(m, q, beta, i)
			if lo > exact+1e-12 || exact > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Observation 1, first inequality: exp(−xq) ≤ 1 − q/(1/x+1) for x ≥ 0.
func TestObservation1Upper(t *testing.T) {
	f := func(xRaw, qRaw float64) bool {
		if math.IsNaN(xRaw) || math.IsNaN(qRaw) {
			return true
		}
		x := math.Abs(math.Mod(xRaw, 100))
		q := math.Abs(math.Mod(qRaw, 1))
		if x == 0 {
			return true // statement needs x > 0 for the 1/x term
		}
		lhs, rhs := Observation1Upper(x, q)
		return lhs <= rhs+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Observation 1, second inequality: 1 − q/(1/x+1) ≤ exp(−xq/2) for x ∈ (0,1].
func TestObservation1Lower(t *testing.T) {
	f := func(xRaw, qRaw float64) bool {
		if math.IsNaN(xRaw) || math.IsNaN(qRaw) {
			return true
		}
		x := math.Abs(math.Mod(xRaw, 1))
		q := math.Abs(math.Mod(qRaw, 1))
		if x == 0 {
			return true
		}
		lhs, rhs := Observation1Lower(x, q)
		return lhs <= rhs+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Q_i is non-increasing in β.
func TestExactSuccessMonotoneInBeta(t *testing.T) {
	m := randomMatrix(t, 21, 10)
	src := rng.New(8)
	q := randomProbs(src, m.N)
	for i := 0; i < m.N; i++ {
		prev := math.Inf(1)
		for _, beta := range []float64{0.1, 0.5, 1, 2.5, 5, 20} {
			p := ExactSuccess(m, q, beta, i)
			if p > prev+1e-15 {
				t.Fatalf("link %d: Q increased from %g to %g as β grew", i, prev, p)
			}
			prev = p
		}
	}
}

// Q_i is non-increasing in any interferer's transmission probability and
// linear (increasing) in its own.
func TestExactSuccessMonotoneInProbs(t *testing.T) {
	m := randomMatrix(t, 23, 8)
	src := rng.New(9)
	q := randomProbs(src, m.N)
	i := 3
	base := ExactSuccess(m, q, 2.5, i)
	for j := 0; j < m.N; j++ {
		if j == i {
			continue
		}
		bumped := append([]float64(nil), q...)
		bumped[j] = math.Min(1, q[j]+0.3)
		if p := ExactSuccess(m, bumped, 2.5, i); p > base+1e-15 {
			t.Fatalf("raising q[%d] increased Q_%d from %g to %g", j, i, base, p)
		}
	}
	own := append([]float64(nil), q...)
	own[i] = 1
	pFull := ExactSuccess(m, own, 2.5, i)
	if q[i] > 0 {
		// Q is proportional to q_i.
		if math.Abs(pFull*q[i]-base) > 1e-12 {
			t.Fatalf("Q not linear in own probability: %g vs %g", pFull*q[i], base)
		}
	}
}

func TestExpectedSuccessesExactSums(t *testing.T) {
	m := randomMatrix(t, 31, 12)
	src := rng.New(10)
	q := randomProbs(src, m.N)
	var want float64
	for i := 0; i < m.N; i++ {
		want += ExactSuccess(m, q, 2.5, i)
	}
	if got := ExpectedSuccessesExact(m, q, 2.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpectedSuccessesExact = %g, want %g", got, want)
	}
}

func TestExpectedBinaryValueOfSet(t *testing.T) {
	m := randomMatrix(t, 33, 10)
	set := []int{1, 4, 7}
	got := ExpectedBinaryValueOfSet(m, set, 2.5)
	q := make([]float64, m.N)
	for _, i := range set {
		q[i] = 1
	}
	var want float64
	for _, i := range set {
		want += ExactSuccess(m, q, 2.5, i)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("set value = %g, want %g", got, want)
	}
	if got <= 0 || got > float64(len(set)) {
		t.Fatalf("set value %g out of range (0,%d]", got, len(set))
	}
}

// Lemma 2's engine: if the set transmits at exactly its non-fading SINR
// γ_i^nf as the threshold, the Rayleigh success probability is ≥ 1/e.
func TestLemma2CoreProbabilityAtLeastOneOverE(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 12)
		src := rng.New(seed + 17)
		var set []int
		for i := 0; i < m.N; i++ {
			if src.Bernoulli(0.4) {
				set = append(set, i)
			}
		}
		if len(set) == 0 {
			return true
		}
		active := sinr.SetToActive(m.N, set)
		vals := sinr.Values(m, active)
		q := make([]float64, m.N)
		for _, i := range set {
			q[i] = 1
		}
		for _, i := range set {
			gamma := vals[i]
			if gamma <= 0 || math.IsInf(gamma, 1) {
				continue
			}
			if ExactSuccess(m, q, gamma, i) < 1/math.E-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceSumBounds(t *testing.T) {
	m := randomMatrix(t, 41, 20)
	src := rng.New(12)
	q := randomProbs(src, m.N)
	for i := 0; i < m.N; i++ {
		a := InterferenceSum(m, q, 2.5, i)
		if a < 0 || a > float64(m.N) {
			t.Fatalf("A_%d = %g outside [0,n]", i, a)
		}
	}
}

// The Lemma 1 upper bound rewritten through A_i:
// Q_i ≤ q_i · exp(−βν/S̄ii − A_i/2).
func TestUpperBoundViaInterferenceSum(t *testing.T) {
	m := randomMatrix(t, 43, 15)
	src := rng.New(13)
	q := randomProbs(src, m.N)
	beta := 2.5
	for i := 0; i < m.N; i++ {
		ai := InterferenceSum(m, q, beta, i)
		sii := m.Own(i)
		bound := q[i] * math.Exp(-beta*m.Noise/sii-ai/2)
		if p := ExactSuccess(m, q, beta, i); p > bound+1e-12 {
			t.Fatalf("link %d: Q = %g exceeds A_i-form bound %g", i, p, bound)
		}
	}
}

func TestSampleSINRsRespectsActivity(t *testing.T) {
	m := randomMatrix(t, 51, 10)
	src := rng.New(14)
	active := make([]bool, m.N)
	active[2], active[5] = true, true
	vals := SampleSINRs(m, active, src)
	for i, v := range vals {
		if !active[i] && v != 0 {
			t.Fatalf("inactive link %d has SINR %g", i, v)
		}
		if active[i] && (v < 0 || math.IsNaN(v)) {
			t.Fatalf("active link %d has SINR %g", i, v)
		}
	}
}

// Solo link with noise: P(realized SINR ≥ β) should match exp(−βν/S̄ii).
func TestSampleSINRsMarginalDistribution(t *testing.T) {
	m := mat(t, [][]float64{{2}}, 0.5)
	src := rng.New(15)
	active := []bool{true}
	beta := 3.0
	want := math.Exp(-beta * 0.5 / 2)
	hits := 0
	const n = 200000
	for s := 0; s < n; s++ {
		if SampleSINRs(m, active, src)[0] >= beta {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("solo tail probability %g, want %g", got, want)
	}
}

func TestSampleSuccesses(t *testing.T) {
	m := randomMatrix(t, 53, 10)
	src := rng.New(16)
	active := make([]bool, m.N)
	for i := range active {
		active[i] = true
	}
	set := SampleSuccesses(m, active, 2.5, src)
	seen := map[int]bool{}
	for _, i := range set {
		if i < 0 || i >= m.N || seen[i] {
			t.Fatalf("bad success set %v", set)
		}
		seen[i] = true
	}
}

// ExpectedUtilityMC with binary utility must agree with the closed form.
func TestExpectedUtilityMCMatchesClosedForm(t *testing.T) {
	m := randomMatrix(t, 55, 10)
	src := rng.New(17)
	q := randomProbs(src, m.N)
	beta := 2.5
	exact := ExpectedSuccessesExact(m, q, beta)
	mc := ExpectedUtilityMC(m, q, utility.Uniform(utility.Binary{Beta: beta}), 60000, src)
	if math.Abs(mc.Mean-exact) > 5*mc.StdErr+0.05 {
		t.Fatalf("MC %g ± %g vs exact %g", mc.Mean, mc.StdErr, exact)
	}
}

func TestExpectedUtilityMCShannonPositive(t *testing.T) {
	m := randomMatrix(t, 57, 10)
	src := rng.New(18)
	q := UniformProbs(m.N, 0.5)
	mc := ExpectedUtilityMC(m, q, utility.Uniform(utility.Shannon{}), 2000, src)
	if mc.Mean <= 0 {
		t.Fatalf("Shannon capacity estimate %g should be positive", mc.Mean)
	}
	if mc.N != 2000 {
		t.Fatalf("sample count %d", mc.N)
	}
}

func TestExpectedUtilityMCPanics(t *testing.T) {
	m := randomMatrix(t, 59, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("0 samples did not panic")
		}
	}()
	ExpectedUtilityMC(m, UniformProbs(4, 0.5), utility.Uniform(utility.Shannon{}), 0, rng.New(1))
}

func TestSuccessCountersForProbs(t *testing.T) {
	m := randomMatrix(t, 61, 20)
	src := rng.New(19)
	q := UniformProbs(m.N, 0.3)
	nf, tx1 := NonFadingSuccessesForProbs(m, q, 2.5, src)
	rl, tx2 := RayleighSuccessesForProbs(m, q, 2.5, src)
	if nf < 0 || nf > tx1 || tx1 > m.N {
		t.Fatalf("non-fading successes %d of %d transmitters", nf, tx1)
	}
	if rl < 0 || rl > tx2 || tx2 > m.N {
		t.Fatalf("Rayleigh successes %d of %d transmitters", rl, tx2)
	}
}

func TestUniformProbs(t *testing.T) {
	q := UniformProbs(4, 0.25)
	if len(q) != 4 {
		t.Fatalf("len = %d", len(q))
	}
	for _, p := range q {
		if p != 0.25 {
			t.Fatalf("probs = %v", q)
		}
	}
}

// Property: Q is always a probability.
func TestQuickExactSuccessIsProbability(t *testing.T) {
	f := func(seed uint64, betaRaw float64) bool {
		if math.IsNaN(betaRaw) {
			return true
		}
		m := randomMatrix(t, seed, 8)
		src := rng.New(seed ^ 0xf00)
		q := randomProbs(src, m.N)
		beta := 0.01 + math.Abs(math.Mod(betaRaw, 50))
		for i := 0; i < m.N; i++ {
			p := ExactSuccess(m, q, beta, i)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			if p > q[i]+1e-12 { // success requires transmitting
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactSuccess100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	q := UniformProbs(100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactSuccess(m, q, 2.5, i%100)
	}
}

func BenchmarkSampleSINRs100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	src := rng.New(2)
	active := make([]bool, 100)
	for i := range active {
		active[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleSINRs(m, active, src)
	}
}

// BenchmarkCountSuccesses100 times the Figure-1 counting kernel at β = 2.5 on
// a paper-settings network, for a sparse and a fully active transmitter set.
func BenchmarkCountSuccesses100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	c := NewCounter(m)
	for _, density := range []float64{0.3, 1.0} {
		b.Run(fmt.Sprintf("density=%.1f", density), func(b *testing.B) {
			active := randomActive(rng.New(3), 100, density)
			src := rng.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Count(active, 2.5, src)
			}
		})
	}
}

// BenchmarkNewCounter100 times building a Counter for the matrix of
// BenchmarkCountSuccesses100; TestNewCounterCost holds it to a fifth of
// building the matrix.
func BenchmarkNewCounter100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCounter(m)
	}
}

func BenchmarkExpectedSuccessesExact100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	q := UniformProbs(100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedSuccessesExact(m, q, 2.5)
	}
}
