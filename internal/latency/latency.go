// Package latency implements latency minimization: scheduling all n links in
// as few time slots as possible so that every link succeeds at least once.
//
// Two algorithm families from the literature are provided, matching the two
// classes the paper's Section 4 transforms:
//
//   - RepeatedCapacityCtx — maximize the utilization of the first slot with a
//     capacity algorithm, remove the successful links, recurse [8]. Under
//     Rayleigh fading the same schedule is replayed with each slot repeated
//     transform.AlohaRepeats times (ExpandSchedule), preserving per-slot
//     success probabilities by the Section-4 argument.
//
//   - AlohaCtx — the distributed, ALOHA-style contention scheme in the spirit
//     of Kesselheim–Vöcking [9]: every still-unserved link transmits with a
//     (small) probability each slot and drops out on success. The fading
//     variant executes every randomized step AlohaRepeats times.
//
// Both run against an abstract SuccessModel so the identical algorithm code
// drives the non-fading and the Rayleigh-fading experiments.
package latency

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/transform"
)

// SuccessModel decides which of the currently transmitting links succeed at
// threshold beta. Implementations exist for both interference models.
type SuccessModel interface {
	// Successes returns the indices of active links with SINR ≥ beta for
	// one slot. Stochastic models draw fresh fading randomness per call.
	Successes(m *network.Matrix, active []bool, beta float64) []int
	// Name identifies the model in experiment output.
	Name() string
}

// NonFading decides successes deterministically from the expected gains,
// each link by sinr.SINRAt against the slot's active list. The zero value
// is ready to use; it keeps its scratch from slot to slot, so a warmed slot
// allocates nothing. As with Rayleigh, the success slice Successes returns
// is only valid until the next call on the same model.
type NonFading struct {
	idx, succ []int
}

// Successes implements SuccessModel.
func (nf *NonFading) Successes(m *network.Matrix, active []bool, beta float64) []int {
	nf.idx = sinr.ActiveList(active, nf.idx)
	nf.succ = sinr.AppendSuccesses(nf.succ[:0], m, nf.idx, beta)
	return nf.succ
}

// Name implements SuccessModel.
func (*NonFading) Name() string { return "non-fading" }

// Rayleigh draws an exponential fading realization per slot and decides it
// with a fading.Counter on one gain matrix, so its slots allocate nothing.
// It answers only for its counter's matrix and panics on any other.
type Rayleigh struct {
	c    *fading.Counter
	src  *rng.Source
	ok   []bool
	succ []int
}

// NewRayleigh returns a Rayleigh model deciding with c on c's matrix and
// drawing from src. The success slice Successes returns is only valid until
// the next call on the same model — the schedulers in this package all
// consume it immediately.
func NewRayleigh(c *fading.Counter, src *rng.Source) *Rayleigh {
	n := c.Matrix().N
	return &Rayleigh{c: c, src: src, ok: make([]bool, n), succ: make([]int, 0, n)}
}

// Successes implements SuccessModel.
func (r *Rayleigh) Successes(m *network.Matrix, active []bool, beta float64) []int {
	if m != r.c.Matrix() {
		panic("latency: Rayleigh model asked about a matrix other than its counter's")
	}
	r.c.Count(active, beta, r.src, r.ok)
	succ := r.succ[:0]
	for i, ok := range r.ok {
		if ok {
			succ = append(succ, i)
		}
	}
	r.succ = succ
	return succ
}

// Name implements SuccessModel.
func (*Rayleigh) Name() string { return "rayleigh" }

// ErrUnschedulable reports links that can never succeed (their own signal
// cannot beat the noise at the threshold), making full-coverage latency
// minimization impossible in the non-fading model.
var ErrUnschedulable = errors.New("latency: some links can never reach the threshold")

// CapacityFunc is any single-slot capacity maximizer over a restricted
// candidate set: it returns a feasible subset of the candidates. A function
// cut short by cancellation returns ctx.Err().
type CapacityFunc func(ctx context.Context, m *network.Matrix, beta float64, candidates []int) ([]int, error)

// GreedyCapacity adapts the affectance greedy of internal/capacity into a
// CapacityFunc, scanning candidates in the given global order.
func GreedyCapacity(order []int, tau float64) CapacityFunc {
	return func(ctx context.Context, m *network.Matrix, beta float64, candidates []int) ([]int, error) {
		inCand := make(map[int]bool, len(candidates))
		for _, c := range candidates {
			inCand[c] = true
		}
		scan := make([]int, 0, len(candidates))
		for _, i := range order {
			if inCand[i] {
				scan = append(scan, i)
			}
		}
		return capacity.GreedyAffectanceCtx(ctx, m, beta, tau, scan)
	}
}

// RepeatedCapacityCtx builds a non-fading schedule by repeatedly maximizing
// single-slot capacity among the still-unscheduled links. It returns the
// slots (each a feasible set). Links that cannot succeed even alone
// (sinr.Alone, the rule the affectance greedy admits by) trigger
// ErrUnschedulable.
//
// ctx is polled before every slot construction (each slot is one capacity-
// maximization pass, the expensive unit of work) and handed to capFn. A
// cancellation, whether seen here or by capFn, returns ctx.Err() and no
// partial schedule, since a truncated schedule would violate the
// serve-every-link contract.
func RepeatedCapacityCtx(ctx context.Context, m *network.Matrix, beta float64, capFn CapacityFunc) ([][]int, error) {
	ctx, sp := obs.StartDetached(ctx, "latency.repeated_capacity")
	sp.SetAttr("links", m.N)
	var slots [][]int
	defer func() {
		sp.SetAttr("slots", len(slots))
		sp.End()
	}()
	remaining := make([]int, 0, m.N)
	for i := 0; i < m.N; i++ {
		if !sinr.Alone(m, i, beta) {
			return nil, fmt.Errorf("%w: link %d", ErrUnschedulable, i)
		}
		remaining = append(remaining, i)
	}
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		slot, err := capFn(ctx, m, beta, remaining)
		if err != nil {
			return nil, err
		}
		if len(slot) == 0 {
			// A correct capacity function can always schedule a lone
			// viable link; an empty slot means the function is broken.
			return nil, fmt.Errorf("latency: capacity function returned empty slot with %d links remaining", len(remaining))
		}
		if !sinr.Feasible(m, slot, beta) {
			return nil, fmt.Errorf("latency: capacity function returned infeasible slot %v", slot)
		}
		slots = append(slots, slot)
		scheduled := make(map[int]bool, len(slot))
		for _, i := range slot {
			scheduled[i] = true
		}
		next := remaining[:0]
		for _, i := range remaining {
			if !scheduled[i] {
				next = append(next, i)
			}
		}
		remaining = next
	}
	return slots, nil
}

// RepeatUntilDoneCtx replays a base schedule (expanded by `repeats` per
// slot, the Section-4 transformation) in rounds under a stochastic model
// until every link has succeeded or maxRounds is exhausted. It returns the
// total number of slots consumed. This is how a non-fading schedule is
// deployed under Rayleigh fading: each round every link keeps an
// independent chance, so the expected number of rounds is O(1) per link and
// O(log n) for all.
//
// ctx is polled once per replay round, and the slots consumed so far are
// returned with done == false and ctx.Err() when cancelled.
func RepeatUntilDoneCtx(ctx context.Context, m *network.Matrix, base [][]int, beta float64, repeats, maxRounds int, model SuccessModel) (totalSlots int, done bool, err error) {
	if repeats <= 0 {
		panic(fmt.Sprintf("latency: repeats = %d must be positive", repeats))
	}
	if maxRounds <= 0 {
		panic(fmt.Sprintf("latency: maxRounds = %d must be positive", maxRounds))
	}
	ctx, sp := obs.StartDetached(ctx, "latency.repeat_until_done")
	sp.SetAttr("model", model.Name())
	defer func() {
		sp.SetAttr("slots", totalSlots)
		sp.SetAttr("done", done)
		sp.End()
	}()
	expanded := transform.ExpandSchedule(base, repeats)
	served := make([]bool, m.N)
	needed := m.N
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return totalSlots, false, err
		}
		for _, slot := range expanded {
			// Only still-unserved links re-transmit; served ones are done.
			active := make([]bool, m.N)
			any := false
			for _, i := range slot {
				if !served[i] {
					active[i] = true
					any = true
				}
			}
			totalSlots++
			if !any {
				continue
			}
			for _, i := range model.Successes(m, active, beta) {
				if !served[i] {
					served[i] = true
					needed--
				}
			}
			if needed == 0 {
				return totalSlots, true, nil
			}
		}
	}
	return totalSlots, false, nil
}

// AlohaConfig parameterizes the distributed contention protocol.
type AlohaConfig struct {
	// Prob is the per-slot transmission probability of each unserved link.
	// The paper's Section 4 analyzes probabilities at most 1/2.
	Prob float64
	// MaxSlots aborts the run; 0 means 64·n slots.
	MaxSlots int
	// Repeats executes each randomized step this many times under a
	// stochastic model (the Section-4 transformation); use 1 for the
	// plain non-fading protocol and transform.AlohaRepeats for Rayleigh.
	Repeats int
}

// AlohaResult reports a contention-resolution run.
type AlohaResult struct {
	// Slots is the number of time slots consumed (counting repeats).
	Slots int
	// Done reports whether every link succeeded within the budget.
	Done bool
	// PerSlotSuccesses is the number of first-time successes per slot.
	PerSlotSuccesses []int
}

// AlohaCtx runs the distributed protocol: in every slot, each unserved link
// transmits independently with cfg.Prob (its random draw held fixed across
// the cfg.Repeats executions of the step, which re-randomize only the
// fading); links that succeed stop transmitting. The same code serves both
// models through the SuccessModel interface.
//
// ctx is polled once per randomized step, and the partial result
// (Done == false) is returned with ctx.Err() when cancelled.
func AlohaCtx(ctx context.Context, m *network.Matrix, beta float64, cfg AlohaConfig, src *rng.Source, model SuccessModel) (AlohaResult, error) {
	if cfg.Prob <= 0 || cfg.Prob > 1 {
		panic(fmt.Sprintf("latency: transmission probability %g outside (0,1]", cfg.Prob))
	}
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = 64 * m.N
	}
	probs := make([]float64, m.N)
	for i := range probs {
		probs[i] = cfg.Prob
	}
	return contend(ctx, "latency.aloha", m, beta, probs, cfg.Repeats, maxSlots, src, model, nil)
}

// contend is the randomized-step loop of AlohaCtx and BackoffAloha. Each
// step, every unserved link i transmits with probability probs[i], its draw
// held fixed across the step's repeats (at least one), which re-randomize
// only the fading; links that succeed stop transmitting. After each step a
// non-nil afterStep sees the links that transmitted and failed, which are
// the ones still marked active. ctx is polled once per step, and the
// partial result is returned with ctx.Err() when cancelled.
func contend(ctx context.Context, span string, m *network.Matrix, beta float64, probs []float64, repeats, maxSlots int,
	src *rng.Source, model SuccessModel, afterStep func(active []bool)) (res AlohaResult, err error) {
	if repeats <= 0 {
		repeats = 1
	}
	ctx, sp := obs.StartDetached(ctx, span)
	sp.SetAttr("model", model.Name())
	defer func() {
		sp.SetAttr("slots", res.Slots)
		sp.SetAttr("done", res.Done)
		sp.End()
	}()
	served := make([]bool, m.N)
	needed := m.N
	active := make([]bool, m.N)
	for res.Slots < maxSlots && needed > 0 {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// One randomized step: draw the transmitting set among unserved.
		any := false
		for i := range active {
			active[i] = !served[i] && src.Bernoulli(probs[i])
			any = any || active[i]
		}
		for r := 0; r < repeats && res.Slots < maxSlots; r++ {
			res.Slots++
			if !any {
				res.PerSlotSuccesses = append(res.PerSlotSuccesses, 0)
				continue
			}
			newly := 0
			for _, i := range model.Successes(m, active, beta) {
				if !served[i] {
					served[i] = true
					active[i] = false // do not re-transmit in later repeats
					newly++
					needed--
				}
			}
			res.PerSlotSuccesses = append(res.PerSlotSuccesses, newly)
			if needed == 0 {
				break
			}
		}
		if afterStep != nil {
			afterStep(active)
		}
	}
	res.Done = needed == 0
	return res, nil
}

// Path is a multi-hop route: an ordered list of link indices; hop h+1 may
// only be scheduled after hop h has succeeded (store-and-forward).
type Path []int

// MultiHopCtx schedules a set of packets along their paths: in every slot
// the set of "ready" links (each packet's next un-traversed hop) contends
// via the given capacity function, the chosen feasible subset transmits,
// and successes advance their packets. It returns the number of slots until
// all packets arrive, or done=false when maxSlots runs out. This is the
// concatenation-of-single-hop-schedules construction the paper's Section 4
// extends to multi-hop scheduling.
//
// ctx is polled once per slot and handed to capFn. On cancellation, or any
// other capFn error, the slots consumed so far are returned with
// done == false and the error.
func MultiHopCtx(ctx context.Context, m *network.Matrix, beta float64, paths []Path, capFn CapacityFunc, maxSlots int, model SuccessModel) (slots int, done bool, err error) {
	if maxSlots <= 0 {
		maxSlots = 64 * m.N * (len(paths) + 1)
	}
	progress := make([]int, len(paths)) // next hop index per packet
	remaining := len(paths)
	for _, p := range paths {
		if len(p) == 0 {
			remaining--
		}
		for _, link := range p {
			if link < 0 || link >= m.N {
				panic(fmt.Sprintf("latency: path link %d out of range", link))
			}
		}
	}
	for slots = 0; slots < maxSlots && remaining > 0; slots++ {
		if err := ctx.Err(); err != nil {
			return slots, false, err
		}
		// Collect ready links (dedup: two packets may share a next hop).
		readySet := map[int]bool{}
		for k, p := range paths {
			if progress[k] < len(p) {
				readySet[p[progress[k]]] = true
			}
		}
		ready := make([]int, 0, len(readySet))
		for i := range readySet {
			ready = append(ready, i)
		}
		sort.Ints(ready) // deterministic candidate order for any capFn
		slot, err := capFn(ctx, m, beta, ready)
		if err != nil {
			return slots, false, err
		}
		if len(slot) == 0 {
			continue
		}
		active := make([]bool, m.N)
		for _, i := range slot {
			active[i] = true
		}
		succeeded := map[int]bool{}
		for _, i := range model.Successes(m, active, beta) {
			succeeded[i] = true
		}
		for k, p := range paths {
			if progress[k] < len(p) && succeeded[p[progress[k]]] {
				progress[k]++
				if progress[k] == len(p) {
					remaining--
				}
			}
		}
	}
	return slots, remaining == 0, nil
}
