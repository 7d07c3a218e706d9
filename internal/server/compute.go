package server

import (
	"context"
	"errors"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/latency"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
	"rayfade/internal/utility"
)

// The compute functions below are the service's business logic: pure,
// deterministic functions from (parsed request, compiled topology) to a
// response struct. The compiled topology may be shared with concurrent
// requests, so they only read it. They run on pool workers with the
// request's context and hand it to every algorithm they call. The
// algorithms poll it, so a deadline or client disconnect stops the work
// instead of burning a worker, and their spans nest under the request span.

func computeSchedule(ctx context.Context, p scheduleParams, t *compiled) (*scheduleResponse, error) {
	net, m := t.net, t.m
	resp := &scheduleResponse{Algorithm: p.Algorithm, Links: m.N, Beta: p.Beta}
	switch p.Algorithm {
	case "greedy":
		set, err := capacity.GreedyAffectanceCtx(ctx, m, p.Beta, capacity.DefaultTau, capacity.LengthOrder(net))
		if err != nil {
			return nil, err
		}
		resp.Set = set
		resp.Value = float64(len(set))
		resp.ExpectedRayleigh = fading.ExpectedBinaryValueOfSet(m, set, p.Beta)
	case "weighted":
		set, value, err := capacity.GreedyWeighted(ctx, m, p.Beta)
		if err != nil {
			return nil, err
		}
		resp.Set, resp.Value = set, value
		resp.ExpectedRayleigh = fading.ExpectedBinaryValueOfSet(m, set, p.Beta)
	case "powercontrol":
		pc, err := capacity.PowerControlGreedyCtx(ctx, net, p.Beta)
		if err != nil {
			return nil, err
		}
		resp.Set = pc.Set
		resp.Value = float64(len(pc.Set))
		resp.Powers = pc.Powers
		// Evaluate the fading expectation under the certified powers, not
		// the input powers the solution replaced.
		resp.ExpectedRayleigh = fading.ExpectedBinaryValueOfSet(pc.ApplyPowers(net).Gains(), pc.Set, p.Beta)
	default:
		return nil, badRequest("unknown algorithm %q (want greedy, weighted, or powercontrol)", p.Algorithm)
	}
	if resp.Set == nil {
		resp.Set = []int{} // render [] rather than null
	}
	resp.Size = len(resp.Set)
	resp.Lemma2Floor = resp.Value * transform.LossFactor
	return resp, nil
}

func computeLatency(ctx context.Context, p latencyParams, t *compiled) (*latencyResponse, error) {
	net, m := t.net, t.m
	resp := &latencyResponse{
		Scheduler: p.Scheduler, Model: p.Model, Links: m.N,
		Beta: p.Beta, Seed: p.Seed, Repeats: 1,
	}
	if p.Model == "rayleigh" {
		resp.Repeats = transform.AlohaRepeats
	}
	src := rng.New(p.Seed)
	switch p.Scheduler {
	case "repeated":
		capFn := latency.GreedyCapacity(capacity.LengthOrder(net), capacity.DefaultTau)
		sched, err := latency.RepeatedCapacityCtx(ctx, m, p.Beta, capFn)
		if err != nil {
			if errors.Is(err, latency.ErrUnschedulable) {
				return nil, unprocessable("%v", err)
			}
			return nil, err
		}
		resp.Schedule = sched
		switch p.Model {
		case "nonfading":
			resp.Slots, resp.Done = len(sched), true
		case "rayleigh":
			maxRounds := p.MaxSlots
			if maxRounds <= 0 {
				maxRounds = 10000
			}
			slots, done, err := latency.RepeatUntilDoneCtx(ctx, m, sched, p.Beta,
				transform.AlohaRepeats, maxRounds, latency.NewRayleigh(t.counter(), src))
			if err != nil {
				return nil, err
			}
			resp.Slots, resp.Done = slots, done
		}
	case "aloha":
		cfg := latency.AlohaConfig{Prob: p.Prob, MaxSlots: p.MaxSlots, Repeats: resp.Repeats}
		var model latency.SuccessModel = &latency.NonFading{}
		if p.Model == "rayleigh" {
			model = latency.NewRayleigh(t.counter(), src.Split())
		}
		res, err := latency.AlohaCtx(ctx, m, p.Beta, cfg, src, model)
		if err != nil {
			return nil, err
		}
		resp.Slots, resp.Done = res.Slots, res.Done
	}
	return resp, nil
}

func computeReduce(ctx context.Context, p mcParams, t *compiled) (*reduceResponse, error) {
	m := t.m
	q := fading.UniformProbs(m.N, p.Prob)
	steps := transform.Schedule(q, transform.ScheduleRepeats)
	best, all, err := transform.BestStepCtx(ctx, m, steps,
		utility.Uniform(utility.Binary{Beta: p.Beta}), p.Samples, rng.New(p.Seed))
	if err != nil {
		return nil, err
	}
	resp := &reduceResponse{
		Links: m.N, Beta: p.Beta, Prob: p.Prob, Seed: p.Seed,
		Levels:        len(steps),
		LogStar:       stats.LogStar(float64(m.N)),
		TotalSlots:    transform.TotalSlots(steps),
		BestLevel:     best.Step.Level,
		BestValue:     best.Value.Mean,
		RayleighExact: fading.ExpectedSuccessesExact(m, q, p.Beta),
	}
	for _, sv := range all {
		resp.Steps = append(resp.Steps, reduceStep{
			Level:       sv.Step.Level,
			B:           sv.Step.B,
			Repeats:     sv.Step.Repeats,
			ValueMean:   sv.Value.Mean,
			ValueStderr: sv.Value.StdErr,
		})
	}
	if resp.BestValue > 0 {
		resp.Ratio = resp.RayleighExact / resp.BestValue
	}
	return resp, nil
}

// estimateCtxStride is how many Monte-Carlo samples run between context
// polls in computeEstimate.
const estimateCtxStride = 64

func computeEstimate(ctx context.Context, p mcParams, t *compiled) (*estimateResponse, error) {
	m := t.m
	q := fading.UniformProbs(m.N, p.Prob)
	src := rng.New(p.Seed)
	// Allocation-free sampling: one Counter and activity buffer for the
	// whole request. The Counter's scratch is request-scoped; its Plan is
	// the compiled topology's, shared when that is memoized.
	active := make([]bool, m.N)
	counter := t.counter()
	var acc fading.MCSum
	for s := 0; s < p.Samples; s++ {
		if s%estimateCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for i := range active {
			active[i] = src.Bernoulli(q[i])
		}
		acc.Add(float64(counter.Count(active, p.Beta, src, nil)))
	}
	est := acc.Result()
	return &estimateResponse{
		Links: m.N, Beta: p.Beta, Prob: p.Prob, Seed: p.Seed, Samples: p.Samples,
		Mean:   est.Mean,
		Stderr: est.StdErr,
		Exact:  fading.ExpectedSuccessesExact(m, q, p.Beta),
	}, nil
}
