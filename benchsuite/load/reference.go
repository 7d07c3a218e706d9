package load

import (
	"math"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts:
// the same Figure-1 run has taken anywhere from 0.9s to 1.9s within minutes
// on one two-CPU virtual machine, with no steal time reported. A reference
// loop timed just before and just after each measurement tracks that drift
// (over five minutes of four-network Figure-1 runs, the runs spread by an
// interquartile 17% of their median, their ratios to the loop by 8%), so
// the suite divides its times by the loop's slowdown against a fixed
// nominal time.

// referenceIters and referenceNominal fix the reference loop: xorshift and
// math.Log, the instruction mix of the exponential draws that dominate the
// simulation, taking referenceNominal on an unloaded machine of the kind the
// benchmark was recorded on.
const (
	referenceIters   = 700_000
	referenceNominal = 7 * time.Millisecond
)

var referenceSink float64

// referenceLoop times one pass of the reference loop.
func referenceLoop() time.Duration {
	t := time.Now()
	s := uint64(88172645463325252)
	x := 0.0
	for i := 0; i < referenceIters; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x += math.Log(float64(s>>11)*0x1p-53 + 1e-300)
	}
	referenceSink = x
	return time.Since(t)
}

// Slowdown returns how much slower than nominal the machine runs now: the
// reference loop is timed three times on each CPU the process may use (up
// to eight), and the median pass per CPU, averaged over the CPUs, is
// divided by the nominal time. Each CPU is timed separately because on a
// shared host each one slows and recovers on its own, as its sibling
// hardware thread is taken and released by other tenants. Call Slowdown
// while the system under test is idle; a measurement is best corrected by
// the mean of the slowdowns just before and just after it.
func Slowdown() float64 {
	total := 0.0
	cpus := usableCPUs(8)
	for _, cpu := range cpus {
		onCPU(cpu, func() {
			ts := []float64{float64(referenceLoop()), float64(referenceLoop()), float64(referenceLoop())}
			total += Median(ts)
		})
	}
	return total / float64(len(cpus)) / float64(referenceNominal)
}
