package rayfade_test

import (
	"fmt"
	"log"

	"rayfade"
)

// The basic workflow: build a scenario, solve it in the non-fading model,
// and carry the solution into the Rayleigh model with its guarantee.
func Example() {
	cfg := rayfade.Figure1Workload()
	cfg.N = 30
	scn, err := rayfade.NewScenario(cfg, 2.5, 7)
	if err != nil {
		log.Fatal(err)
	}
	set := scn.GreedyCapacity()
	rep := scn.TransferToRayleigh(set)
	fmt.Printf("selected %d links, feasible %v\n", len(set), scn.Feasible(set))
	fmt.Printf("guarantee %.2f ≤ exact %.2f ≤ size %d\n",
		rep.GuaranteedValue, scn.ExpectedRayleighSuccesses(set), len(set))
	// Output:
	// selected 20 links, feasible true
	// guarantee 7.36 ≤ exact 16.50 ≤ size 20
}

// Theorem 1's closed form answers probabilistic-access questions directly —
// no simulation needed.
func ExampleScenario_RayleighSuccessProbability() {
	cfg := rayfade.Figure1Workload()
	cfg.N = 10
	scn, err := rayfade.NewScenario(cfg, 2.5, 3)
	if err != nil {
		log.Fatal(err)
	}
	q := scn.UniformProbs(0.5)
	p := scn.RayleighSuccessProbability(q, 0)
	lo, hi := scn.RayleighSuccessBounds(q, 0)
	fmt.Printf("bracketed: %v\n", lo <= p && p <= hi)
	// Output:
	// bracketed: true
}

// The exact expected Shannon rate needs no sampling: Theorem 1's closed
// form under the layer-cake integral.
func ExampleScenario_TotalShannonRate() {
	cfg := rayfade.Figure1Workload()
	cfg.N = 8
	scn, err := rayfade.NewScenario(cfg, 2.5, 11)
	if err != nil {
		log.Fatal(err)
	}
	total, err := scn.TotalShannonRate(scn.UniformProbs(0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("positive capacity: %v\n", total > 0)
	// Output:
	// positive capacity: true
}

// Latency minimization end to end: a non-fading schedule replayed under
// Rayleigh fading with the Section-4 repetition factor.
func ExampleScenario_RepeatedCapacitySchedule() {
	cfg := rayfade.Figure1Workload()
	cfg.N = 30
	scn, err := rayfade.NewScenario(cfg, 2.5, 13)
	if err != nil {
		log.Fatal(err)
	}
	slots, err := scn.RepeatedCapacitySchedule()
	if err != nil {
		log.Fatal(err)
	}
	_, done := scn.PlayScheduleRayleigh(slots, 200)
	fmt.Printf("schedule of %d slots, rayleigh replay done: %v\n", len(slots), done)
	// Output:
	// schedule of 3 slots, rayleigh replay done: true
}

// Algorithm 1 compresses any Rayleigh probability assignment into a handful
// of non-fading levels — O(log* n) of them.
func ExampleScenario_SimulationSchedule() {
	cfg := rayfade.Figure1Workload()
	cfg.N = 100
	scn, err := rayfade.NewScenario(cfg, 2.5, 5)
	if err != nil {
		log.Fatal(err)
	}
	steps := scn.SimulationSchedule(scn.UniformProbs(0.9))
	fmt.Printf("%d levels simulate 100 links\n", len(steps))
	fmt.Printf("level 0 scales by 4·b₀ = %g\n", 4*steps[0].B)
	// Output:
	// 7 levels simulate 100 links
	// level 0 scales by 4·b₀ = 1
}

// Fading models beyond the paper's plug into the same sampler: Nakagami-m
// fading with a large shape M fades less than Rayleigh, so a set that is
// feasible without fading keeps more of its links.
func ExampleScenario_SampleFadingSuccesses() {
	cfg := rayfade.Figure1Workload()
	cfg.N = 30
	scn, err := rayfade.NewScenario(cfg, 2.5, 7)
	if err != nil {
		log.Fatal(err)
	}
	set := scn.GreedyCapacity()
	mild, rayleigh := 0, 0
	for r := 0; r < 200; r++ {
		mild += len(scn.SampleFadingSuccesses(set, rayfade.NakagamiGains{M: 16}))
		rayleigh += len(scn.SampleFadingSuccesses(set, rayfade.RayleighGains{}))
	}
	fmt.Printf("Nakagami m=16 keeps more links than Rayleigh: %v\n", mild > rayleigh)
	// Output:
	// Nakagami m=16 keeps more links than Rayleigh: true
}
