// Package graphsched implements the graph-based interference baseline the
// paper's introduction contrasts the SINR world against: interference is
// abstracted into a binary conflict graph, and scheduling reduces to
// independent sets (capacity) and colorings (latency).
//
// The conflict graph is built from the gain matrix: links i and j conflict
// when either imposes more than a threshold fraction of the other's
// interference tolerance (a pairwise affectance test). This is the natural
// "protocol model" surrogate a downstream user would reach for — and the
// comparison experiments show exactly what the paper's line of work argues:
// pairwise conflicts miss the accumulation of many weak interferers, so
// graph-feasible sets are NOT always SINR-feasible, while SINR-aware
// algorithms retain guarantees under both evaluations.
package graphsched

import (
	"fmt"
	"sort"

	"rayfade/internal/network"
	"rayfade/internal/sinr"
)

// ConflictGraph is a binary interference abstraction over n links.
type ConflictGraph struct {
	N   int
	adj [][]bool
	deg []int
}

// DefaultThreshold is the pairwise-affectance level above which two links
// are declared conflicting. 0.5 means a single neighbor may consume at most
// half of a link's interference tolerance.
const DefaultThreshold = 0.5

// FromMatrix builds the conflict graph at threshold beta: links i≠j
// conflict iff a(i,j) > tau or a(j,i) > tau (uncapped affectance).
func FromMatrix(m *network.Matrix, beta, tau float64) *ConflictGraph {
	if tau <= 0 {
		panic(fmt.Sprintf("graphsched: conflict threshold τ = %g must be positive", tau))
	}
	g := &ConflictGraph{N: m.N, adj: make([][]bool, m.N), deg: make([]int, m.N)}
	for i := range g.adj {
		g.adj[i] = make([]bool, m.N)
	}
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if sinr.AffectanceUncapped(m, beta, i, j) > tau ||
				sinr.AffectanceUncapped(m, beta, j, i) > tau {
				g.adj[i][j] = true
				g.adj[j][i] = true
				g.deg[i]++
				g.deg[j]++
			}
		}
	}
	return g
}

// IndependentSet greedily builds a maximal independent set, scanning links
// in non-decreasing degree order (the classic heuristic). This is the
// graph-model answer to capacity maximization.
func (g *ConflictGraph) IndependentSet() []int {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.deg[order[a]] < g.deg[order[b]] })
	blocked := make([]bool, g.N)
	var set []int
	for _, i := range order {
		if blocked[i] {
			continue
		}
		set = append(set, i)
		for j := 0; j < g.N; j++ {
			if g.adj[i][j] {
				blocked[j] = true
			}
		}
	}
	sort.Ints(set)
	return set
}

// Coloring greedily colors the conflict graph (largest-degree-first) and
// returns the color classes — the graph-model answer to latency
// minimization: one slot per color.
func (g *ConflictGraph) Coloring() [][]int {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.deg[order[a]] > g.deg[order[b]] })
	color := make([]int, g.N)
	for i := range color {
		color[i] = -1
	}
	numColors := 0
	used := make([]bool, g.N+1)
	for _, i := range order {
		for k := range used {
			used[k] = false
		}
		for j := 0; j < g.N; j++ {
			if g.adj[i][j] && color[j] >= 0 {
				used[color[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[i] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	classes := make([][]int, numColors)
	for i, c := range color {
		classes[c] = append(classes[c], i)
	}
	return classes
}

// Evaluation compares a graph-model schedule against ground truth: for each
// color class (slot), how many of its links actually succeed under the real
// SINR constraint.
type Evaluation struct {
	// Slots is the schedule length (number of color classes).
	Slots int
	// Scheduled is the total number of link-slots scheduled.
	Scheduled int
	// SINRSuccesses is how many scheduled links actually reach β when
	// their slot transmits, evaluated in the non-fading SINR model.
	SINRSuccesses int
	// Violations counts scheduled links that fail the real constraint —
	// the accumulation effect the binary abstraction cannot see.
	Violations int
}

// EvaluateSchedule replays color classes under the true SINR model.
func EvaluateSchedule(m *network.Matrix, classes [][]int, beta float64) Evaluation {
	ev := Evaluation{Slots: len(classes)}
	for _, slot := range classes {
		ev.Scheduled += len(slot)
		idx := sinr.ActiveList(sinr.SetToActive(m.N, slot), make([]int, 0, len(slot)))
		ok := sinr.CountSuccesses(m, idx, beta)
		ev.SINRSuccesses += ok
		ev.Violations += len(slot) - ok
	}
	return ev
}
