// Capacity maximization across power regimes: the example compares the
// algorithm families the paper's reduction transfers — uniform-power greedy,
// exact power control, a local-search optimum estimate — and the
// flexible-data-rate (Shannon) decomposition, reporting for each solution
// its non-fading value and its exact expected value under Rayleigh fading.
package main

import (
	"context"
	"fmt"
	"log"

	"rayfade"
	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/utility"
)

func main() {
	const beta = 2.5
	scn, err := rayfade.NewScenario(rayfade.Figure1Workload(), beta, 7)
	if err != nil {
		log.Fatal(err)
	}
	net := scn.Network()

	fmt.Printf("%-26s %8s %22s\n", "algorithm", "set size", "E[rayleigh successes]")
	show := func(name string, set []int, ev float64) {
		fmt.Printf("%-26s %8d %22.2f\n", name, len(set), ev)
	}

	greedy := scn.GreedyCapacity()
	show("greedy (uniform power)", greedy, scn.ExpectedRayleighSuccesses(greedy))

	est := scn.OptimumEstimate()
	show("local-search optimum", est, scn.ExpectedRayleighSuccesses(est))

	pc := scn.PowerControlCapacity()
	pcNet := pc.ApplyPowers(net)
	show("power control", pc.Set, fading.ExpectedBinaryValueOfSet(pcNet.Gains(), pc.Set, beta))

	// Square-root power assignment (the second curve family of Figure 1).
	sqrtNet := net.Clone().ApplyPower(rayfade.SquareRootPower{Scale: 2, Alpha: net.Alpha})
	// The length-ordered greedy also serves monotone power assignments.
	sqrtSet, err := capacity.GreedyUniform(context.Background(), sqrtNet, beta)
	if err != nil {
		log.Fatal(err)
	}
	show("greedy (sqrt power)", sqrtSet, fading.ExpectedBinaryValueOfSet(sqrtNet.Gains(), sqrtSet, beta))

	// Flexible data rates: maximize total Shannon capacity by picking the
	// best SINR threshold class (Kesselheim's rate decomposition).
	best, classes, err := capacity.FlexibleRates(context.Background(), net, utility.Uniform(utility.Shannon{}), 0.25, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflexible rates (Shannon): best class β=%.2f, %d links, value %.2f nats\n",
		best.Beta, len(best.Set), best.Value)
	for _, c := range classes {
		fmt.Printf("  class β=%5.2f: %3d links, value %6.2f\n", c.Beta, len(c.Set), c.Value)
	}
}
