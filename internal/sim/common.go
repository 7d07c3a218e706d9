package sim

import (
	"context"
	"time"

	"rayfade/internal/obs"
)

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
