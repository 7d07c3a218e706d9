// Package multihop provides the routing substrate for multi-hop scheduling
// (the setting the paper's Section 4 extends its transformations to):
// geometric connectivity graphs over node sets, shortest-path routing, and
// the conversion of node routes into link networks plus hop sequences that
// the latency schedulers consume.
//
// The paper treats a multi-hop schedule as a concatenation of single-hop
// schedules; this package builds those single hops. Packets travel
// store-and-forward along their routes, so a route of k node hops becomes k
// entries in a latency.Path over the constructed link network.
package multihop

import (
	"fmt"

	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// Graph is a geometric connectivity graph: nodes can communicate when their
// distance is at most Radius.
type Graph struct {
	Nodes  []geom.Point
	Radius float64
	Metric geom.Metric
	adj    [][]int
}

// NewGraph builds the adjacency structure for the node set. It returns an
// error for empty node sets or non-positive radii.
func NewGraph(nodes []geom.Point, radius float64, metric geom.Metric) (*Graph, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("multihop: no nodes")
	}
	if radius <= 0 {
		return nil, fmt.Errorf("multihop: radius %g must be positive", radius)
	}
	if metric == nil {
		metric = geom.Euclidean{}
	}
	g := &Graph{Nodes: nodes, Radius: radius, Metric: metric, adj: make([][]int, len(nodes))}
	for u := range nodes {
		for v := u + 1; v < len(nodes); v++ {
			if metric.Dist(nodes[u], nodes[v]) <= radius {
				g.adj[u] = append(g.adj[u], v)
				g.adj[v] = append(g.adj[v], u)
			}
		}
	}
	return g, nil
}

// Connected reports whether the whole graph is one connected component.
func (g *Graph) Connected() bool {
	if len(g.Nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == len(g.Nodes)
}

// ShortestHops returns a minimum-hop path from src to dst (inclusive of both
// endpoints) via BFS, or nil if dst is unreachable. src == dst yields the
// single-node path.
func (g *Graph) ShortestHops(src, dst int) []int {
	g.check(src)
	g.check(dst)
	if src == dst {
		return []int{src}
	}
	prev := make([]int, len(g.Nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if prev[v] == -1 {
				prev[v] = u
				if v == dst {
					return g.walkBack(prev, src, dst)
				}
				queue = append(queue, v)
			}
		}
	}
	return nil
}

func (g *Graph) check(u int) {
	if u < 0 || u >= len(g.Nodes) {
		panic(fmt.Sprintf("multihop: node %d out of range [0,%d)", u, len(g.Nodes)))
	}
}

func (g *Graph) walkBack(prev []int, src, dst int) []int {
	var rev []int
	for u := dst; ; u = prev[u] {
		rev = append(rev, u)
		if u == src {
			break
		}
	}
	path := make([]int, len(rev))
	for i, u := range rev {
		path[len(rev)-1-i] = u
	}
	return path
}

// Workload is a routed multi-hop instance ready for the latency schedulers:
// the link network containing every hop of every route, and per-packet hop
// sequences as link indices into that network.
type Workload struct {
	Network *network.Network
	// Routes[k] lists the link indices of packet k's hops, in order.
	Routes [][]int
	// NodeRoutes[k] is packet k's node path (for reporting).
	NodeRoutes [][]int
}

// BuildWorkload converts node routes into a link network: every directed
// hop (u→v) used by any route becomes one link (deduplicated), powered by
// pa. alpha and noise parameterize the propagation.
func BuildWorkload(g *Graph, nodeRoutes [][]int, alpha, noise float64, pa network.PowerAssignment) (*Workload, error) {
	if pa == nil {
		pa = network.UniformPower{P: 1}
	}
	type hop struct{ u, v int }
	index := map[hop]int{}
	net := &network.Network{Metric: g.Metric, Alpha: alpha, Noise: noise}
	w := &Workload{Network: net}
	for k, route := range nodeRoutes {
		if len(route) == 0 {
			return nil, fmt.Errorf("multihop: route %d is empty", k)
		}
		var links []int
		for h := 0; h+1 < len(route); h++ {
			u, v := route[h], route[h+1]
			g.check(u)
			g.check(v)
			if u == v {
				return nil, fmt.Errorf("multihop: route %d has a self-hop at node %d", k, u)
			}
			key := hop{u, v}
			li, ok := index[key]
			if !ok {
				d := g.Metric.Dist(g.Nodes[u], g.Nodes[v])
				net.Links = append(net.Links, network.Link{
					Sender:   g.Nodes[u],
					Receiver: g.Nodes[v],
					Power:    pa.Power(d),
					Weight:   1,
				})
				li = len(net.Links) - 1
				index[key] = li
			}
			links = append(links, li)
		}
		w.Routes = append(w.Routes, links)
		w.NodeRoutes = append(w.NodeRoutes, append([]int(nil), route...))
	}
	if len(net.Links) == 0 {
		return nil, fmt.Errorf("multihop: no hops in any route")
	}
	return w, nil
}

// RandomWorkload places n nodes uniformly in the area, connects them at the
// given radius, routes `packets` random source→destination pairs by minimum
// hops, and builds the link workload. Pairs whose endpoints are not
// connected are re-drawn (up to a bounded number of attempts).
func RandomWorkload(n int, area geom.Rect, radius float64, packets int, alpha, noise float64, pa network.PowerAssignment, src *rng.Source) (*Workload, *Graph, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("multihop: need at least 2 nodes, got %d", n)
	}
	if packets <= 0 {
		return nil, nil, fmt.Errorf("multihop: packets = %d must be positive", packets)
	}
	nodes := make([]geom.Point, n)
	for i := range nodes {
		nodes[i] = geom.Point{
			X: src.UniformRange(area.X0, area.X1),
			Y: src.UniformRange(area.Y0, area.Y1),
		}
	}
	g, err := NewGraph(nodes, radius, geom.Euclidean{})
	if err != nil {
		return nil, nil, err
	}
	var routes [][]int
	attempts := 0
	for len(routes) < packets {
		attempts++
		if attempts > 100*packets {
			return nil, nil, fmt.Errorf("multihop: could not route %d packets (graph too disconnected at radius %g)", packets, radius)
		}
		s := src.Intn(n)
		d := src.Intn(n)
		if s == d {
			continue
		}
		path := g.ShortestHops(s, d)
		if path == nil {
			continue
		}
		routes = append(routes, path)
	}
	w, err := BuildWorkload(g, routes, alpha, noise, pa)
	if err != nil {
		return nil, nil, err
	}
	return w, g, nil
}
