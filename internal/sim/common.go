package sim

import (
	"context"
	"math"
	"time"

	"rayfade/internal/network"
	"rayfade/internal/obs"
)

// countNonFadingInto counts active links reaching beta in the non-fading
// model, by sinr.ValuesInto's rule: a receiver's interference is the noise
// plus the gain of every other active sender, added in index order, and
// its SINR is +Inf when that sum is 0, else own gain over it. It visits
// only active pairs, through the active list it builds in idx (capacity at
// least m.N; overwritten).
func countNonFadingInto(m *network.Matrix, active []bool, beta float64, idx []int) int {
	idx = idx[:0]
	for j, a := range active {
		if a {
			idx = append(idx, j)
		}
	}
	count := 0
	for k, i := range idx {
		in := m.Incoming(i)
		interf := m.Noise
		for _, j := range idx[:k] {
			interf += in[j]
		}
		for _, j := range idx[k+1:] {
			interf += in[j]
		}
		v := math.Inf(1)
		if interf != 0 {
			v = in[i] / interf
		}
		if v >= beta {
			count++
		}
	}
	return count
}

// tickRealizations batches fading-realization counts into the installed
// progress tracker, if any.
func tickRealizations(n int) {
	activeTracker().AddRealizations(n)
}

// beginExperiment opens the root span for one experiment run, annotates it
// with the key parameters (kv alternates string keys and values), and emits
// a start log record. The returned finish func ends the span and logs the
// elapsed time; callers defer it. Observability only — it must never touch
// the experiment RNG streams.
func beginExperiment(ctx context.Context, name string, kv ...any) (context.Context, func()) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, name)
	for i := 0; i+1 < len(kv); i += 2 {
		if k, ok := kv[i].(string); ok {
			sp.SetAttr(k, kv[i+1])
		}
	}
	log := activeLogger()
	args := make([]any, 0, len(kv)+4)
	args = append(args, "experiment", name)
	if id := obs.RunID(ctx); id != "" {
		args = append(args, "run_id", id)
	}
	args = append(args, kv...)
	log.Info("experiment start", args...)
	return ctx, func() {
		sp.End()
		log.Info("experiment done", "experiment", name, "elapsed", time.Since(start).Round(time.Millisecond).String())
	}
}
