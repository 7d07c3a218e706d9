// Package network models sets of communication links — sender/receiver
// pairs with transmission powers — and derives from them the matrix of
// expected received signal strengths S̄(j,i) that both interference models
// consume.
//
// In the paper's notation (Section 2), a network is n links (s_1,r_1) ...
// (s_n,r_n). Under the standard geometric assumption, the expected strength
// of sender j's signal at receiver i is
//
//	S̄(j,i) = p_j / d(s_j, r_i)^α
//
// for transmission power p_j and path-loss exponent α. The non-fading model
// uses S̄(j,i) directly; the Rayleigh-fading model draws an exponential
// random variable with this mean. Everything downstream (SINR evaluation,
// success probabilities, scheduling algorithms) works from the Matrix type
// produced here, so non-geometric gain matrices can be injected for tests —
// the paper's reduction does not require geometry, only non-negative means.
package network

import (
	"errors"
	"fmt"
	"math"

	"rayfade/internal/geom"
	"rayfade/internal/rng"
)

// Link is one communication request: a sender that wants to transmit to a
// receiver with a fixed power. Weight is the link's value in weighted
// capacity maximization (1 for the standard unweighted objective).
type Link struct {
	Sender   geom.Point
	Receiver geom.Point
	Power    float64
	Weight   float64
}

// Length returns the sender-receiver distance under metric m.
func (l Link) Length(m geom.Metric) float64 { return m.Dist(l.Sender, l.Receiver) }

// Network is a set of links embedded in a metric space with a common
// path-loss exponent and ambient noise power.
type Network struct {
	Links  []Link
	Metric geom.Metric
	Alpha  float64 // path-loss exponent α > 0
	Noise  float64 // ambient noise ν ≥ 0
}

// N returns the number of links.
func (n *Network) N() int { return len(n.Links) }

// Validate reports structural problems that would make downstream
// computations meaningless: no links, non-positive powers, bad exponents,
// negative noise, or zero-length links (which give infinite gain).
func (n *Network) Validate() error {
	if len(n.Links) == 0 {
		return errors.New("network: no links")
	}
	if n.Metric == nil {
		return errors.New("network: nil metric")
	}
	if !(n.Alpha > 0) {
		return fmt.Errorf("network: path-loss exponent α = %g must be positive", n.Alpha)
	}
	if n.Noise < 0 || math.IsNaN(n.Noise) || math.IsInf(n.Noise, 0) {
		return fmt.Errorf("network: noise ν = %g must be finite and non-negative", n.Noise)
	}
	for i, l := range n.Links {
		if !(l.Power > 0) || math.IsInf(l.Power, 0) {
			return fmt.Errorf("network: link %d has invalid power %g", i, l.Power)
		}
		if l.Weight < 0 {
			return fmt.Errorf("network: link %d has negative weight %g", i, l.Weight)
		}
		if l.Length(n.Metric) <= 0 {
			return fmt.Errorf("network: link %d has non-positive length", i)
		}
	}
	return nil
}

// Lengths returns the sender-receiver distance of every link.
func (n *Network) Lengths() []float64 {
	ls := make([]float64, len(n.Links))
	for i, l := range n.Links {
		ls[i] = l.Length(n.Metric)
	}
	return ls
}

// Delta returns Δ, the ratio between the longest and shortest link. Several
// approximation bounds in the literature (e.g. the O(log Δ) bound for
// uniform powers) are parameterized by it.
func (n *Network) Delta() float64 {
	if len(n.Links) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), 0.0
	for _, d := range n.Lengths() {
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return hi / lo
}

// Clone returns a deep copy of the network (the metric, being stateless, is
// shared).
func (n *Network) Clone() *Network {
	c := *n
	c.Links = append([]Link(nil), n.Links...)
	return &c
}

// Matrix is the n×n table of expected received signal strengths S̄(j,i) in
// structure-of-arrays form: one flat, receiver-major float64 slice plus a
// cached diagonal. Entry (j,i) — sender j's mean strength at receiver i,
// the paper's S̄_{j,i} — is read with At(j, i); the gains arriving at one
// receiver are contiguous in memory, so the SINR inner loops (sum over
// senders j at a fixed receiver i) walk a cache-linear slice obtained with
// Incoming(i) instead of striding across rows of a [][]float64.
type Matrix struct {
	N     int
	Noise float64
	// Weights carries the links' weights so that algorithms operating
	// purely on the matrix can still optimize weighted objectives.
	Weights []float64
	// in is the receiver-major backing: in[i*N+j] = S̄(j,i).
	in []float64
	// own caches the diagonal: own[i] = S̄(i,i), the expected own-signal
	// strength every feasibility and affectance check starts from.
	own []float64
}

// newMatrix allocates an all-zero n×n matrix with unit weights.
func newMatrix(n int, noise float64) *Matrix {
	m := &Matrix{
		N:       n,
		Noise:   noise,
		Weights: make([]float64, n),
		in:      make([]float64, n*n),
		own:     make([]float64, n),
	}
	for i := range m.Weights {
		m.Weights[i] = 1
	}
	return m
}

// At returns S̄(j,i), the mean strength of sender j's signal at receiver i.
func (m *Matrix) At(j, i int) float64 { return m.in[i*m.N+j] }

// Own returns S̄(i,i), the expected own-signal strength of link i.
func (m *Matrix) Own(i int) float64 { return m.own[i] }

// Incoming returns the contiguous slice of gains arriving at receiver i:
// Incoming(i)[j] = S̄(j,i). It is a live view into the matrix backing (not a
// copy) — the allocation-free contract of the sampling and SINR kernels
// depends on that — so callers must not grow or retain it across mutations.
func (m *Matrix) Incoming(i int) []float64 { return m.in[i*m.N : (i+1)*m.N] }

// SetGain sets S̄(j,i), keeping the diagonal cache coherent. Construction
// and test injection go through here; hot paths only read.
func (m *Matrix) SetGain(j, i int, v float64) {
	m.in[i*m.N+j] = v
	if j == i {
		m.own[i] = v
	}
}

// LinkArrays is the structure-of-arrays view of a network's links: parallel
// slices indexed by link, each contiguous in memory. Gains builds one per
// topology so the O(n²) gain fill streams through positions and powers
// linearly instead of hopping across Link structs.
type LinkArrays struct {
	SenderX, SenderY     []float64
	ReceiverX, ReceiverY []float64
	Power                []float64
	Weight               []float64
}

// Arrays decomposes the links into their structure-of-arrays form. Weights
// of zero are normalized to 1, matching the Matrix convention.
func (n *Network) Arrays() *LinkArrays {
	size := len(n.Links)
	backing := make([]float64, 6*size)
	a := &LinkArrays{
		SenderX:   backing[0*size : 1*size],
		SenderY:   backing[1*size : 2*size],
		ReceiverX: backing[2*size : 3*size],
		ReceiverY: backing[3*size : 4*size],
		Power:     backing[4*size : 5*size],
		Weight:    backing[5*size : 6*size],
	}
	for i, l := range n.Links {
		a.SenderX[i], a.SenderY[i] = l.Sender.X, l.Sender.Y
		a.ReceiverX[i], a.ReceiverY[i] = l.Receiver.X, l.Receiver.Y
		a.Power[i] = l.Power
		w := l.Weight
		if w == 0 {
			w = 1
		}
		a.Weight[i] = w
	}
	return a
}

// Gains computes the expected-strength matrix of the network:
// S̄(j,i) = p_j / d(s_j, r_i)^α, laid out receiver-major so each receiver's
// incoming gains are contiguous. The fill iterates receivers in the outer
// loop and streams the sender arrays in the inner loop; the per-entry
// arithmetic (power times PathLoss of the metric distance) is unchanged, so
// every entry is bit-identical to the historical row-major construction.
func (n *Network) Gains() *Matrix {
	size := len(n.Links)
	m := newMatrix(size, n.Noise)
	a := n.Arrays()
	for i := 0; i < size; i++ {
		row := m.in[i*size : (i+1)*size]
		recv := geom.Point{X: a.ReceiverX[i], Y: a.ReceiverY[i]}
		for j := 0; j < size; j++ {
			d := n.Metric.Dist(geom.Point{X: a.SenderX[j], Y: a.SenderY[j]}, recv)
			row[j] = a.Power[j] * geom.PathLoss(d, n.Alpha)
		}
		m.own[i] = row[i]
	}
	copy(m.Weights, a.Weight)
	return m
}

// NewMatrix builds a Matrix directly from gain values; g[j][i] is the mean
// strength of sender j at receiver i. It is the injection point for
// non-geometric instances (the paper's reduction needs only non-negative
// means). Weights default to 1. It has no production caller; it stays as
// the constructor tests in several packages use for hand-built instances.
func NewMatrix(g [][]float64, noise float64) (*Matrix, error) {
	n := len(g)
	if n == 0 {
		return nil, errors.New("network: empty gain matrix")
	}
	if noise < 0 || math.IsNaN(noise) || math.IsInf(noise, 0) {
		return nil, fmt.Errorf("network: invalid noise %g", noise)
	}
	m := newMatrix(n, noise)
	for j, row := range g {
		if len(row) != n {
			return nil, fmt.Errorf("network: gain row %d has length %d, want %d", j, len(row), n)
		}
		for i, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("network: gain G[%d][%d] = %g invalid", j, i, v)
			}
			m.SetGain(j, i, v)
		}
	}
	return m, nil
}

// Validate checks the matrix for NaN, negative entries, and shape errors.
func (m *Matrix) Validate() error {
	if m.N == 0 || len(m.in) != m.N*m.N || len(m.own) != m.N {
		return fmt.Errorf("network: matrix shape N=%d backing=%d diag=%d", m.N, len(m.in), len(m.own))
	}
	for i := 0; i < m.N; i++ {
		row := m.Incoming(i)
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("network: G[%d][%d] = %g invalid", j, i, v)
			}
		}
		if m.own[i] != row[i] {
			return fmt.Errorf("network: diagonal cache stale at link %d (%g != %g)", i, m.own[i], row[i])
		}
	}
	if m.Noise < 0 {
		return fmt.Errorf("network: negative noise %g", m.Noise)
	}
	return nil
}

// PowerAssignment maps a link to its transmission power. The paper's
// transformations never modify powers, so an assignment is fixed before any
// algorithm runs; the power-control algorithm of [6] chooses its own powers
// and overrides whatever assignment the network started with.
type PowerAssignment interface {
	// Power returns the transmission power for a link of length d.
	Power(d float64) float64
	// Name identifies the assignment in experiment output.
	Name() string
}

// UniformPower assigns every link the same power P. The paper's Figure 1
// uses UniformPower{P: 2}.
type UniformPower struct{ P float64 }

// Power implements PowerAssignment.
func (u UniformPower) Power(float64) float64 { return u.P }

// Name implements PowerAssignment.
func (u UniformPower) Name() string { return fmt.Sprintf("uniform(%g)", u.P) }

// SquareRootPower assigns a link of length d the power Scale·sqrt(d^α),
// the "square-root" (mean) power assignment of [4]; the paper's Figure 1
// uses Scale = 2 and α = 2.2.
type SquareRootPower struct {
	Scale float64
	Alpha float64
}

// Power implements PowerAssignment.
func (s SquareRootPower) Power(d float64) float64 {
	return s.Scale * math.Sqrt(math.Pow(d, s.Alpha))
}

// Name implements PowerAssignment.
func (s SquareRootPower) Name() string { return fmt.Sprintf("sqrt(scale=%g,α=%g)", s.Scale, s.Alpha) }

// LinearPower assigns a link of length d the power Scale·d^α, which makes
// every link's received signal strength equal to Scale — the classic
// "linear" assignment.
type LinearPower struct {
	Scale float64
	Alpha float64
}

// Power implements PowerAssignment.
func (l LinearPower) Power(d float64) float64 { return l.Scale * math.Pow(d, l.Alpha) }

// Name implements PowerAssignment.
func (l LinearPower) Name() string { return fmt.Sprintf("linear(scale=%g,α=%g)", l.Scale, l.Alpha) }

// PowerFunc adapts a plain function to a PowerAssignment.
type PowerFunc struct {
	F     func(d float64) float64
	Label string
}

// Power implements PowerAssignment.
func (p PowerFunc) Power(d float64) float64 { return p.F(d) }

// Name implements PowerAssignment.
func (p PowerFunc) Name() string { return p.Label }

// ApplyPower sets every link's power according to the assignment and
// returns the network for chaining.
func (n *Network) ApplyPower(pa PowerAssignment) *Network {
	for i := range n.Links {
		n.Links[i].Power = pa.Power(n.Links[i].Length(n.Metric))
	}
	return n
}

// Config describes the random-network workload of the paper's Section 7:
// receivers placed uniformly at random on a plane, each sender at a uniform
// random angle and uniform random distance from its receiver.
type Config struct {
	N          int         // number of links
	Area       geom.Rect   // deployment area for receivers
	DMin, DMax float64     // sender-receiver distance range
	Alpha      float64     // path-loss exponent
	Noise      float64     // ambient noise ν
	Metric     geom.Metric // defaults to Euclidean
	Power      PowerAssignment
}

// Figure1Config returns the exact workload of the paper's Figure 1:
// 100 links on a 1000×1000 plane, link lengths in [20,40], α = 2.2,
// ν = 4e-7, uniform power 2.
func Figure1Config() Config {
	return Config{
		N:     100,
		Area:  geom.Square(1000),
		DMin:  20,
		DMax:  40,
		Alpha: 2.2,
		Noise: 4e-7,
		Power: UniformPower{P: 2},
	}
}

// Figure2Config returns the workload of the paper's Figure 2: 200 links,
// link lengths in (0,100], α = 2.1, ν = 0, uniform power 2.
func Figure2Config() Config {
	return Config{
		N:     200,
		Area:  geom.Square(1000),
		DMin:  0,
		DMax:  100,
		Alpha: 2.1,
		Noise: 0,
		Power: UniformPower{P: 2},
	}
}

// Random draws a network from the configuration using src. Receivers are
// uniform over the area; each sender sits at a uniformly random angle and a
// uniformly random distance in (DMin, DMax] from its receiver (the lower
// endpoint is open so that DMin = 0, as in Figure 2, cannot produce a
// zero-length link). Senders may fall outside the area, matching the paper's
// construction, which constrains only receivers.
func Random(cfg Config, src *rng.Source) (*Network, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("network: config.N = %d must be positive", cfg.N)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	net := &Network{
		Links:  make([]Link, cfg.N),
		Metric: cfg.Metric,
		Alpha:  cfg.Alpha,
		Noise:  cfg.Noise,
	}
	for i := range net.Links {
		recv := geom.Point{
			X: src.UniformRange(cfg.Area.X0, cfg.Area.X1),
			Y: src.UniformRange(cfg.Area.Y0, cfg.Area.Y1),
		}
		net.Links[i] = cfg.placeSender(recv, src)
	}
	return net, nil
}

// withDefaults validates cfg's area, distance range and α, and returns cfg
// with its metric defaulted to Euclidean and its power to uniform power 1.
func (cfg Config) withDefaults() (Config, error) {
	if !cfg.Area.Valid() {
		return cfg, fmt.Errorf("network: invalid deployment area %+v", cfg.Area)
	}
	if cfg.DMin < 0 || cfg.DMax <= cfg.DMin {
		return cfg, fmt.Errorf("network: invalid distance range [%g,%g]", cfg.DMin, cfg.DMax)
	}
	if !(cfg.Alpha > 0) {
		return cfg, fmt.Errorf("network: invalid α = %g", cfg.Alpha)
	}
	if cfg.Metric == nil {
		cfg.Metric = geom.Euclidean{}
	}
	if cfg.Power == nil {
		cfg.Power = UniformPower{P: 1}
	}
	return cfg, nil
}

// placeSender returns the link of receiver recv with its sender placed as
// Random places it: a uniform angle, then a uniform distance in
// (DMin, DMax], drawn in that order. cfg must have passed withDefaults.
func (cfg *Config) placeSender(recv geom.Point, src *rng.Source) Link {
	angle := src.UniformRange(0, 2*math.Pi)
	dist := cfg.DMin + (cfg.DMax-cfg.DMin)*src.Float64Open()
	return Link{
		Sender:   recv.PolarOffset(angle, dist),
		Receiver: recv,
		Power:    cfg.Power.Power(dist),
		Weight:   1,
	}
}

// Grid builds a deterministic rows×cols network: receivers on a regular
// grid with the given spacing, each sender offset east by linkLen. Regular
// topologies of this kind are the deterministic counterpart to Random and
// are convenient for tests and worked examples (cf. the regular-topology
// throughput analyses the paper cites).
func Grid(rows, cols int, spacing, linkLen, alpha, noise float64, pa PowerAssignment) (*Network, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("network: grid %dx%d invalid", rows, cols)
	}
	if spacing <= 0 || linkLen <= 0 {
		return nil, fmt.Errorf("network: grid spacing %g / link length %g invalid", spacing, linkLen)
	}
	if pa == nil {
		pa = UniformPower{P: 1}
	}
	net := &Network{
		Links:  make([]Link, 0, rows*cols),
		Metric: geom.Euclidean{},
		Alpha:  alpha,
		Noise:  noise,
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			recv := geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing}
			net.Links = append(net.Links, Link{
				Sender:   recv.Add(geom.Point{X: linkLen}),
				Receiver: recv,
				Power:    pa.Power(linkLen),
				Weight:   1,
			})
		}
	}
	return net, nil
}
