// Package geom provides the 2-D geometry substrate for the wireless network
// models: points, distance metrics, and the rectangular deployment areas used
// by the paper's simulations (receivers placed on a 1000×1000 plane, senders
// at a random angle and distance from their receiver).
//
// The interference reduction in the paper holds for arbitrary expected signal
// strengths, but the cited approximation algorithms assume gains derived from
// a metric. The Metric interface keeps that assumption explicit and swappable:
// the standard experiments use the Euclidean plane, while tests also exercise
// the Manhattan metric and a torus (wrap-around) metric to confirm that
// nothing in the algorithm layer silently depends on Euclidean geometry.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// String formats the point with enough precision for debugging.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// PolarOffset returns the point at the given distance from p in the given
// direction (radians, counter-clockwise from the positive x-axis). The
// paper's network generator places each sender at a uniformly random angle
// and distance from its receiver; this is that primitive.
func (p Point) PolarOffset(angle, dist float64) Point {
	return Point{p.X + dist*math.Cos(angle), p.Y + dist*math.Sin(angle)}
}

// Metric measures distances between points. Implementations must be
// symmetric, non-negative, and zero only for identical points (on the torus,
// identical modulo wrap-around).
type Metric interface {
	// Dist returns the distance between a and b.
	Dist(a, b Point) float64
	// Name identifies the metric in experiment logs.
	Name() string
}

// Euclidean is the standard plane metric used by all of the paper's
// simulations.
type Euclidean struct{}

// Dist returns the L2 distance.
func (Euclidean) Dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric. It is provided for robustness tests: the
// reduction between fading and non-fading models is metric-agnostic.
type Manhattan struct{}

// Dist returns the L1 distance.
func (Manhattan) Dist(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Torus is the Euclidean metric on a W×H rectangle with wrap-around edges.
// It removes boundary effects from random deployments, which is a common
// ablation in the capacity-of-wireless-networks literature.
type Torus struct {
	W, H float64
}

// Dist returns the wrap-around Euclidean distance. Coordinates are first
// reduced modulo the torus dimensions, so the metric is well defined for
// points outside the fundamental domain as well.
func (t Torus) Dist(a, b Point) float64 {
	dx := wrapDelta(a.X-b.X, t.W)
	dy := wrapDelta(a.Y-b.Y, t.H)
	return math.Hypot(dx, dy)
}

// wrapDelta reduces a coordinate difference to the shortest displacement on
// a circle of circumference period. A non-positive period means no wrapping
// in that dimension.
func wrapDelta(d, period float64) float64 {
	d = math.Abs(d)
	if period <= 0 {
		return d
	}
	d = math.Mod(d, period)
	if d > period/2 {
		d = period - d
	}
	return d
}

// Name implements Metric.
func (t Torus) Name() string { return fmt.Sprintf("torus(%gx%g)", t.W, t.H) }

// Rect is an axis-aligned rectangle [X0,X1] × [Y0,Y1], used as a deployment
// area.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Square returns the square deployment area [0,side] × [0,side]. The paper
// uses Square(1000).
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// W returns the rectangle's width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Contains reports whether p lies inside the rectangle (boundary included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.X0), r.X1),
		Y: math.Min(math.Max(p.Y, r.Y0), r.Y1),
	}
}

// Valid reports whether the rectangle is non-degenerate.
func (r Rect) Valid() bool { return r.X1 > r.X0 && r.Y1 > r.Y0 }

// PathLoss returns d^(-α), the propagation attenuation over distance d with
// path-loss exponent alpha. Distance zero (a degenerate co-located pair)
// yields +Inf, which the gain-matrix layer treats as an infinite gain;
// callers that cannot tolerate this should enforce minimum link lengths at
// network-generation time.
func PathLoss(d, alpha float64) float64 {
	if d < 0 {
		panic(fmt.Sprintf("geom: negative distance %g", d))
	}
	if d == 0 {
		return math.Inf(1)
	}
	return math.Pow(d, -alpha)
}
