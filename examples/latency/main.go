// Latency minimization in both interference models: build a non-fading
// schedule by repeated capacity maximization, replay it under Rayleigh
// fading with the Section-4 repetition transformation, and compare against
// the distributed ALOHA-style protocol — including a small multi-hop demo.
package main

import (
	"context"
	"fmt"
	"log"

	"rayfade"
	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/latency"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
)

func main() {
	const beta = 2.5
	scn, err := rayfade.NewScenario(rayfade.Figure1Workload(), beta, 11)
	if err != nil {
		log.Fatal(err)
	}
	n := scn.N()

	// Centralized: repeated single-slot capacity maximization.
	slots, err := scn.RepeatedCapacitySchedule()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-fading schedule: all %d links served in %d slots\n", n, len(slots))

	// Rayleigh replay: each slot executed 4× (Section-4 transformation),
	// repeated until every link has succeeded once.
	var replay stats.Running
	for trial := 0; trial < 10; trial++ {
		used, done := scn.PlayScheduleRayleigh(slots, 1000)
		if !done {
			log.Fatal("rayleigh replay incomplete")
		}
		replay.Add(float64(used))
	}
	fmt.Printf("rayleigh replay (%d× repeats): %s slots\n", transform.AlohaRepeats, replay.Summarize())

	// Distributed: ALOHA-style contention in both models.
	var nf, rl stats.Running
	for trial := 0; trial < 10; trial++ {
		a := scn.Aloha(0.1, false)
		if a.Done {
			nf.Add(float64(a.Slots))
		}
		b := scn.Aloha(0.1, true)
		if b.Done {
			rl.Add(float64(b.Slots))
		}
	}
	fmt.Printf("ALOHA p=0.1          non-fading: %s slots\n", nf.Summarize())
	fmt.Printf("ALOHA p=0.1, 4×      rayleigh:   %s slots\n", rl.Summarize())

	// Multi-hop: forward two packets along 3-hop and 2-hop routes; hop h+1
	// only after hop h delivered (store-and-forward).
	m := scn.Network().Gains()
	capFn := latency.GreedyCapacity(capacity.LengthOrder(scn.Network()), capacity.DefaultTau)
	paths := []latency.Path{{0, 7, 19}, {3, 12}}
	slotsMH, done, err := latency.MultiHopCtx(context.Background(), m, beta, paths, capFn, 0, latency.NonFading{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-hop (non-fading): 2 packets delivered in %d slots (done=%v)\n", slotsMH, done)
	src := rng.New(99)
	slotsMHR, doneR, err := latency.MultiHopCtx(context.Background(), m, beta, paths, capFn, 100000, latency.NewRayleigh(fading.NewCounter(m), src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-hop (rayleigh):   2 packets delivered in %d slots (done=%v)\n", slotsMHR, doneR)
}
