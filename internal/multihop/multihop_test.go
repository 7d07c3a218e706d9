package multihop

import (
	"context"
	"testing"
	"testing/quick"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/latency"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// lineGraph builds n nodes on a line with unit spacing, radius r.
func lineGraph(t testing.TB, n int, r float64) *Graph {
	t.Helper()
	nodes := make([]geom.Point, n)
	for i := range nodes {
		nodes[i] = geom.Point{X: float64(i)}
	}
	g, err := NewGraph(nodes, r, geom.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(nil, 1, nil); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := NewGraph([]geom.Point{{}}, 0, nil); err == nil {
		t.Fatal("zero radius accepted")
	}
}

func TestAdjacency(t *testing.T) {
	g := lineGraph(t, 5, 1.5)
	// Radius 1.5 on a unit line: each interior node sees both neighbors.
	if len(g.adj[0]) != 1 || len(g.adj[2]) != 2 {
		t.Fatalf("degrees: %d %d", len(g.adj[0]), len(g.adj[2]))
	}
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
}

func TestDisconnected(t *testing.T) {
	nodes := []geom.Point{{X: 0}, {X: 100}}
	g, err := NewGraph(nodes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("far-apart pair reported connected")
	}
	if p := g.ShortestHops(0, 1); p != nil {
		t.Fatalf("path across components: %v", p)
	}
}

func TestShortestHopsLine(t *testing.T) {
	g := lineGraph(t, 6, 1.1)
	p := g.ShortestHops(0, 5)
	if len(p) != 6 {
		t.Fatalf("path %v, want all 6 nodes", p)
	}
	for i, u := range p {
		if u != i {
			t.Fatalf("path %v not the line order", p)
		}
	}
	if p := g.ShortestHops(3, 3); len(p) != 1 || p[0] != 3 {
		t.Fatalf("self path %v", p)
	}
}

func TestShortestHopsUsesLongEdges(t *testing.T) {
	// Radius 2.1 lets BFS skip every other node.
	g := lineGraph(t, 7, 2.1)
	p := g.ShortestHops(0, 6)
	if len(p) != 4 { // 0→2→4→6
		t.Fatalf("path %v, want 4 nodes", p)
	}
}

func TestPathEndpointsAndContiguity(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		nodes := make([]geom.Point, 30)
		for i := range nodes {
			nodes[i] = geom.Point{X: src.UniformRange(0, 100), Y: src.UniformRange(0, 100)}
		}
		g, err := NewGraph(nodes, 30, nil)
		if err != nil {
			return false
		}
		s, d := src.Intn(30), src.Intn(30)
		path := g.ShortestHops(s, d)
		if path == nil {
			return true
		}
		if path[0] != s || path[len(path)-1] != d {
			return false
		}
		for h := 0; h+1 < len(path); h++ {
			if g.Metric.Dist(nodes[path[h]], nodes[path[h+1]]) > 30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPanics(t *testing.T) {
	g := lineGraph(t, 3, 1.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.ShortestHops(0, 7)
}

func TestBuildWorkload(t *testing.T) {
	g := lineGraph(t, 5, 1.1)
	routes := [][]int{
		{0, 1, 2, 3},
		{2, 3, 4},
		{0, 1}, // shares hop 0→1 with nothing; route 1 shares 2→3 with route 0
	}
	w, err := BuildWorkload(g, routes, 2.5, 1e-6, network.UniformPower{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Network.Validate(); err != nil {
		t.Fatal(err)
	}
	// Hops: 0→1, 1→2, 2→3 (shared), 3→4 = 4 distinct links.
	if w.Network.N() != 4 {
		t.Fatalf("links = %d, want 4 (deduplicated)", w.Network.N())
	}
	if len(w.Routes) != 3 || len(w.Routes[0]) != 3 || len(w.Routes[1]) != 2 || len(w.Routes[2]) != 1 {
		t.Fatalf("routes = %v", w.Routes)
	}
	// Shared hop 2→3 must be the same link index in routes 0 and 1.
	if w.Routes[0][2] != w.Routes[1][0] {
		t.Fatal("shared hop not deduplicated")
	}
}

func TestBuildWorkloadErrors(t *testing.T) {
	g := lineGraph(t, 3, 1.5)
	if _, err := BuildWorkload(g, [][]int{{}}, 2, 0, nil); err == nil {
		t.Fatal("empty route accepted")
	}
	if _, err := BuildWorkload(g, [][]int{{1, 1}}, 2, 0, nil); err == nil {
		t.Fatal("self-hop accepted")
	}
	if _, err := BuildWorkload(g, [][]int{{0}}, 2, 0, nil); err == nil {
		t.Fatal("hopless workload accepted")
	}
}

func TestRandomWorkloadEndToEnd(t *testing.T) {
	src := rng.New(7)
	w, g, err := RandomWorkload(60, geom.Square(500), 120, 8, 2.5, 1e-7,
		network.UniformPower{P: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Routes) != 8 {
		t.Fatalf("%d routes", len(w.Routes))
	}
	if !gHasAllRoutes(g, w.NodeRoutes) {
		t.Fatal("node routes reference missing adjacency")
	}
	// Drive the full multi-hop scheduler over the built workload, in both
	// interference models.
	m := w.Network.Gains()
	capFn := latency.GreedyCapacity(capacity.LengthOrder(w.Network), capacity.DefaultTau)
	paths := make([]latency.Path, len(w.Routes))
	for k, r := range w.Routes {
		paths[k] = r
	}
	slots, done, err := latency.MultiHopCtx(context.Background(), m, 2.5, paths, capFn, 0, &latency.NonFading{})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("non-fading multihop incomplete after %d slots", slots)
	}
	slotsR, doneR, err := latency.MultiHopCtx(context.Background(), m, 2.5, paths, capFn, 200000, latency.NewRayleigh(fading.NewCounter(m), src))
	if err != nil {
		t.Fatal(err)
	}
	if !doneR {
		t.Fatalf("rayleigh multihop incomplete after %d slots", slotsR)
	}
}

func gHasAllRoutes(g *Graph, routes [][]int) bool {
	for _, r := range routes {
		for h := 0; h+1 < len(r); h++ {
			found := false
			for _, v := range g.adj[r[h]] {
				if v == r[h+1] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

func TestRandomWorkloadErrors(t *testing.T) {
	src := rng.New(1)
	if _, _, err := RandomWorkload(1, geom.Square(100), 10, 1, 2, 0, nil, src); err == nil {
		t.Fatal("single node accepted")
	}
	if _, _, err := RandomWorkload(10, geom.Square(100), 10, 0, 2, 0, nil, src); err == nil {
		t.Fatal("zero packets accepted")
	}
	// Tiny radius on a large area: routing must fail gracefully.
	if _, _, err := RandomWorkload(10, geom.Square(10000), 1, 5, 2, 0, nil, src); err == nil {
		t.Fatal("unroutable workload accepted")
	}
}

func BenchmarkShortestHops200(b *testing.B) {
	src := rng.New(1)
	nodes := make([]geom.Point, 200)
	for i := range nodes {
		nodes[i] = geom.Point{X: src.UniformRange(0, 1000), Y: src.UniformRange(0, 1000)}
	}
	g, err := NewGraph(nodes, 150, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestHops(i%200, (i*7+3)%200)
	}
}

func BenchmarkNewGraph500(b *testing.B) {
	src := rng.New(1)
	nodes := make([]geom.Point, 500)
	for i := range nodes {
		nodes[i] = geom.Point{X: src.UniformRange(0, 1000), Y: src.UniformRange(0, 1000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGraph(nodes, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}
