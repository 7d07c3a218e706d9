package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sim"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
)

// Replays re-run a workload's own computations through the public functions
// of each layer, timing every call. A replay must reproduce the system's
// output exactly; otherwise its timings would describe a different program,
// so a mismatch is reported as a correctness failure.

// costs is the time one operation spends in each layer, in milliseconds,
// plus the work it did.
type costs struct {
	layer map[string]float64
	draws float64 // exponential draws
	calls float64 // fading.CountSuccesses calls
}

func newCosts() costs { return costs{layer: map[string]float64{}} }

// add accumulates another operation's costs into c.
func (c *costs) add(o costs) {
	for k, v := range o.layer {
		c.layer[k] += v
	}
	c.draws += o.draws
	c.calls += o.calls
}

// scaled returns c with every layer time multiplied by k.
func (c costs) scaled(k float64) costs {
	out := newCosts()
	out.add(c)
	for layer := range out.layer {
		out.layer[layer] *= k
	}
	return out
}

// medianCosts takes the per-layer median over replays of one class.
func medianCosts(cs []costs) costs {
	out := newCosts()
	if len(cs) == 0 {
		return out
	}
	layers := map[string]bool{}
	for _, c := range cs {
		for k := range c.layer {
			layers[k] = true
		}
	}
	for layer := range layers {
		vs := make([]float64, len(cs))
		for i, c := range cs {
			vs[i] = c.layer[layer]
		}
		out.layer[layer] = load.Median(vs)
	}
	var draws, calls []float64
	for _, c := range cs {
		draws = append(draws, c.draws)
		calls = append(calls, c.calls)
	}
	out.draws, out.calls = load.Median(draws), load.Median(calls)
	return out
}

// since returns milliseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// activePairs is the number of exponential draws fading.CountSuccesses makes
// for an active set: one per (receiver, sender) pair of active links.
func activePairs(active []bool) float64 {
	a := 0.0
	for _, on := range active {
		if on {
			a++
		}
	}
	return a * a
}

// replayFigure1 recomputes replication rep of a Figure-1 run the way the
// replication body does — draw the network, then for each power assignment
// build the gains and, per probability and transmit seed, draw the transmit
// set, count non-fading successes and count Rayleigh successes per fading
// seed — and returns the curves with the time spent per layer. cfg must be
// fully specified (no zero fields left to defaults).
func replayFigure1(cfg sim.Figure1Config, rep int) (map[string]*stats.Series, costs, error) {
	c := newCosts()
	src := rng.New(cfg.Seed).SplitN(cfg.Networks)[rep]
	curves := map[string]*stats.Series{
		sim.CurveUniformNonFading: stats.NewSeries(cfg.Probs),
		sim.CurveUniformRayleigh:  stats.NewSeries(cfg.Probs),
		sim.CurveSqrtNonFading:    stats.NewSeries(cfg.Probs),
		sim.CurveSqrtRayleigh:     stats.NewSeries(cfg.Probs),
	}
	t := time.Now()
	net, err := network.Random(network.Config{
		N: cfg.Links, Area: geom.Square(cfg.Side),
		DMin: cfg.DMin, DMax: cfg.DMax, Alpha: cfg.Alpha, Noise: cfg.Noise,
	}, src)
	if err != nil {
		return nil, c, err
	}
	c.layer["network"] += since(t)
	active := make([]bool, cfg.Links)
	vals := make([]float64, cfg.Links)
	idx := make([]int, 0, cfg.Links)
	powers := []struct {
		name string
		pa   network.PowerAssignment
	}{
		{"uniform", network.UniformPower{P: cfg.Power}},
		{"sqrt", network.SquareRootPower{Scale: cfg.Power, Alpha: cfg.Alpha}},
	}
	for _, pw := range powers {
		t = time.Now()
		m := net.Clone().ApplyPower(pw.pa).Gains()
		c.layer["network"] += since(t)
		nf, rl := curves[pw.name+"/non-fading"], curves[pw.name+"/rayleigh"]
		for pi, p := range cfg.Probs {
			q := fading.UniformProbs(m.N, p)
			for ts := 0; ts < cfg.TransmitSeeds; ts++ {
				t = time.Now()
				for i := range active {
					active[i] = src.Bernoulli(q[i])
				}
				c.layer["rng"] += since(t)
				t = time.Now()
				sinr.ValuesInto(m, active, vals)
				count := 0
				for i, a := range active {
					if a && vals[i] >= cfg.Beta {
						count++
					}
				}
				c.layer["sinr"] += since(t)
				nf.Observe(pi, float64(count))
				pairs := activePairs(active)
				t = time.Now()
				for fs := 0; fs < cfg.FadingSeeds; fs++ {
					rl.Observe(pi, float64(fading.CountSuccesses(m, active, cfg.Beta, src, vals, idx)))
				}
				c.layer["fading"] += since(t)
				c.draws += pairs * float64(cfg.FadingSeeds)
				c.calls += float64(cfg.FadingSeeds)
			}
		}
	}
	return curves, c, nil
}

// replayEstimate recomputes one /v1/estimate answer the way the daemon's
// compute does and checks it bit for bit against the reply.
func replayEstimate(net *network.Network, got estimateResponse) (costs, error) {
	c := newCosts()
	t := time.Now()
	m := net.Gains()
	c.layer["network"] += since(t)
	q := fading.UniformProbs(m.N, got.Prob)
	src := rng.New(got.Seed)
	active := make([]bool, m.N)
	vals := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	var sum, sumSq float64
	for s := 0; s < got.Samples; s++ {
		t = time.Now()
		for i := range active {
			active[i] = src.Bernoulli(q[i])
		}
		c.layer["rng"] += since(t)
		t = time.Now()
		n := float64(fading.CountSuccesses(m, active, got.Beta, src, vals, idx))
		c.layer["fading"] += since(t)
		c.draws += activePairs(active)
		c.calls++
		sum += n
		sumSq += n * n
	}
	t = time.Now()
	exact := fading.ExpectedSuccessesExact(m, q, got.Beta)
	c.layer["fading"] += since(t)
	n := float64(got.Samples)
	mean := sum / n
	variance := math.Max(sumSq/n-mean*mean, 0)
	stderr := math.Sqrt(variance / n)
	if mean != got.Mean || stderr != got.Stderr || exact != got.Exact {
		return c, fmt.Errorf("replayed estimate (mean %v, stderr %v, exact %v) differs from the reply (%v, %v, %v)",
			mean, stderr, exact, got.Mean, got.Stderr, got.Exact)
	}
	return c, nil
}

// replaySchedule recomputes one greedy or weighted /v1/schedule answer and
// checks the set and its Rayleigh value against the reply.
func replaySchedule(net *network.Network, got scheduleResponse) (costs, error) {
	c := newCosts()
	t := time.Now()
	m := net.Gains()
	c.layer["network"] += since(t)
	t = time.Now()
	order := capacity.LengthOrder(net)
	if got.Algorithm == "weighted" {
		order = capacity.WeightOrder(m)
	}
	set := capacity.GreedyAffectance(m, got.Beta, capacity.DefaultTau, order)
	c.layer["capacity"] += since(t)
	t = time.Now()
	value := fading.ExpectedBinaryValueOfSet(m, set, got.Beta)
	c.layer["fading"] += since(t)
	if !slices.Equal(set, got.Set) || value != got.ExpectedRayleigh {
		return c, fmt.Errorf("replayed %s schedule %v (value %v) differs from the reply %v (%v)",
			got.Algorithm, set, value, got.Set, got.ExpectedRayleigh)
	}
	return c, nil
}

// requestKey hashes a request the way the daemon keys its cache: endpoint,
// the defaults-applied parameters, and the canonical topology.
func requestKey(endpoint string, params any, canon []byte) (string, error) {
	pb, err := json.Marshal(params)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	h.Write(pb)
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// decodeStrict decodes one request document the way the daemon does:
// unknown fields and trailing data rejected.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// parseCanon parses a netio document and writes its canonical form, the
// daemon's per-request topology work for an inline network.
func parseCanon(raw []byte, c *costs) error {
	t := time.Now()
	net, err := netio.Load(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	err = netio.Save(&buf, net)
	c.layer["netio"] += since(t)
	return err
}
