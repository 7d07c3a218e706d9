package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestPolarOffset(t *testing.T) {
	p := Point{10, 10}
	east := p.PolarOffset(0, 5)
	if !almost(east.X, 15, 1e-12) || !almost(east.Y, 10, 1e-12) {
		t.Fatalf("east offset = %v", east)
	}
	north := p.PolarOffset(math.Pi/2, 3)
	if !almost(north.X, 10, 1e-12) || !almost(north.Y, 13, 1e-12) {
		t.Fatalf("north offset = %v", north)
	}
}

func TestPolarOffsetPreservesDistance(t *testing.T) {
	f := func(x, y, angle, distRaw float64) bool {
		if anyBad(x, y, angle, distRaw) {
			return true
		}
		dist := math.Mod(math.Abs(distRaw), 1000)
		p := Point{math.Mod(x, 1e6), math.Mod(y, 1e6)}
		q := p.PolarOffset(angle, dist)
		return almost(Euclidean{}.Dist(p, q), dist, 1e-6*(1+dist))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestEuclidean(t *testing.T) {
	m := Euclidean{}
	if got := m.Dist(Point{0, 0}, Point{3, 4}); got != 5 {
		t.Fatalf("Dist = %g", got)
	}
	if m.Name() != "euclidean" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestManhattan(t *testing.T) {
	m := Manhattan{}
	if got := m.Dist(Point{0, 0}, Point{3, 4}); got != 7 {
		t.Fatalf("Dist = %g", got)
	}
	if got := m.Dist(Point{-1, -1}, Point{1, 1}); got != 4 {
		t.Fatalf("Dist = %g", got)
	}
}

func TestTorusWrap(t *testing.T) {
	m := Torus{W: 100, H: 100}
	// Points near opposite edges are close on the torus.
	if got := m.Dist(Point{1, 50}, Point{99, 50}); !almost(got, 2, 1e-12) {
		t.Fatalf("wrap-x distance = %g, want 2", got)
	}
	if got := m.Dist(Point{50, 1}, Point{50, 99}); !almost(got, 2, 1e-12) {
		t.Fatalf("wrap-y distance = %g, want 2", got)
	}
	// Interior pairs match the Euclidean metric.
	a, b := Point{10, 10}, Point{13, 14}
	if got := m.Dist(a, b); !almost(got, 5, 1e-12) {
		t.Fatalf("interior distance = %g, want 5", got)
	}
}

func TestMetricsSymmetricNonNegative(t *testing.T) {
	metrics := []Metric{Euclidean{}, Manhattan{}, Torus{W: 1000, H: 1000}}
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a := Point{math.Mod(ax, 1000), math.Mod(ay, 1000)}
		b := Point{math.Mod(bx, 1000), math.Mod(by, 1000)}
		for _, m := range metrics {
			d1, d2 := m.Dist(a, b), m.Dist(b, a)
			if d1 < 0 || !almost(d1, d2, 1e-9*(1+d1)) {
				return false
			}
			if m.Dist(a, a) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	metrics := []Metric{Euclidean{}, Manhattan{}, Torus{W: 1000, H: 1000}}
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyBad(ax, ay, bx, by, cx, cy) {
			return true
		}
		a := Point{math.Mod(ax, 1000), math.Mod(ay, 1000)}
		b := Point{math.Mod(bx, 1000), math.Mod(by, 1000)}
		c := Point{math.Mod(cx, 1000), math.Mod(cy, 1000)}
		for _, m := range metrics {
			if m.Dist(a, c) > m.Dist(a, b)+m.Dist(b, c)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := Square(1000)
	if r.W() != 1000 || r.H() != 1000 {
		t.Fatalf("Square(1000) = %+v", r)
	}
	if !r.Valid() {
		t.Fatal("Square(1000) not valid")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{1000, 1000}) {
		t.Fatal("boundary points should be contained")
	}
	if r.Contains(Point{-1, 5}) || r.Contains(Point{5, 1001}) {
		t.Fatal("exterior points should not be contained")
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct{ in, want Point }{
		{Point{5, 5}, Point{5, 5}},
		{Point{-3, 5}, Point{0, 5}},
		{Point{12, -2}, Point{10, 0}},
		{Point{11, 11}, Point{10, 10}},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Fatalf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRectValid(t *testing.T) {
	if (Rect{0, 0, 0, 10}).Valid() {
		t.Fatal("degenerate rect reported valid")
	}
	if (Rect{5, 5, 4, 6}).Valid() {
		t.Fatal("inverted rect reported valid")
	}
}

func TestPathLoss(t *testing.T) {
	if got := PathLoss(2, 2); !almost(got, 0.25, 1e-15) {
		t.Fatalf("PathLoss(2,2) = %g", got)
	}
	if got := PathLoss(10, 2.2); !almost(got, math.Pow(10, -2.2), 1e-15) {
		t.Fatalf("PathLoss(10,2.2) = %g", got)
	}
	if got := PathLoss(0, 2); !math.IsInf(got, 1) {
		t.Fatalf("PathLoss(0,2) = %g, want +Inf", got)
	}
	if got := PathLoss(1, 3.7); got != 1 {
		t.Fatalf("PathLoss(1,α) = %g, want 1", got)
	}
}

func TestPathLossMonotone(t *testing.T) {
	f := func(d1Raw, d2Raw float64) bool {
		if anyBad(d1Raw, d2Raw) {
			return true
		}
		d1 := 0.1 + math.Mod(math.Abs(d1Raw), 1000)
		d2 := d1 + 0.1 + math.Mod(math.Abs(d2Raw), 1000)
		return PathLoss(d1, 2.2) > PathLoss(d2, 2.2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLossPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PathLoss(-1,2) did not panic")
		}
	}()
	PathLoss(-1, 2)
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2}).String(); got != "(1, 2)" {
		t.Fatalf("String = %q", got)
	}
}
