// Multi-hop scheduling end to end: place nodes at random, build the
// geometric connectivity graph, route packets by minimum hops, convert the
// routes into a link network, and schedule the hops store-and-forward in
// both interference models — the setting the paper's Section 4 extends its
// single-hop transformations to.
package main

import (
	"context"
	"fmt"
	"log"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/latency"
	"rayfade/internal/multihop"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

func main() {
	const (
		nodes   = 80
		radius  = 160.0
		packets = 12
		beta    = 2.5
		alpha   = 2.5
		noise   = 1e-7
	)
	src := rng.New(2024)
	w, g, err := multihop.RandomWorkload(nodes, geom.Square(800), radius, packets,
		alpha, noise, network.UniformPower{P: 2}, src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: %d nodes, radius %.0f, connected = %v\n", nodes, radius, g.Connected())
	fmt.Printf("workload: %d packets over %d distinct hop links\n\n", packets, w.Network.N())
	var hopCount stats.Running
	for k, route := range w.NodeRoutes {
		hopCount.Add(float64(len(route) - 1))
		if k < 4 {
			fmt.Printf("  packet %d: %d hops %v\n", k, len(route)-1, route)
		}
	}
	fmt.Printf("  ... average route length: %.1f hops\n\n", hopCount.Mean())

	m := w.Network.Gains()
	capFn := latency.GreedyCapacity(capacity.LengthOrder(w.Network), capacity.DefaultTau)
	paths := make([]latency.Path, len(w.Routes))
	for k, r := range w.Routes {
		paths[k] = r
	}

	slots, done, err := latency.MultiHopCtx(context.Background(), m, beta, paths, capFn, 0, &latency.NonFading{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-fading delivery: %d slots (done=%v)\n", slots, done)

	var rl stats.Running
	counter := fading.NewCounter(m)
	for trial := 0; trial < 10; trial++ {
		s, ok, err := latency.MultiHopCtx(context.Background(), m, beta, paths, capFn, 1000000, latency.NewRayleigh(counter, src.Split()))
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatal("rayleigh delivery incomplete")
		}
		rl.Add(float64(s))
	}
	fmt.Printf("rayleigh delivery:   %s slots over 10 trials\n", rl.Summarize())
	fmt.Println("\nfading stretches the schedule by a small factor, as the Section-4")
	fmt.Println("transformation predicts: each hop keeps a constant success probability.")
}
