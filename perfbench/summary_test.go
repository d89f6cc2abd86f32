package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same samples, extrapolation for tiny samples included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{0.5, 2.5, 10, 4, 7, 1.25, 3}, [3]float64{1.25, 3, 7}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for k := range got {
			if math.Abs(got[k]-c.want[k]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},   // the median has 9.5 samples beyond it
		{20, 50, true},   // exactly ten beyond the median
		{99, 50, true},   // p90 would have 9.9 beyond
		{100, 90, true},  // ten beyond p90
		{999, 90, true},  // p99 would have 9.99 beyond
		{1000, 99, true}, // ten beyond p99
		{9999, 99, true},
		{10000, 99.9, true},
		{7400, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for k := range xs {
		xs[k] = float64(100 - k) // 100 down to 1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestShareKeepsItsBase(t *testing.T) {
	if got := share(1.5, 6); got != 0.25 {
		t.Errorf("share(1.5, 6) = %v, want 0.25", got)
	}
	// An empty base means the layer did not run: the share is 0, not Inf.
	if got := share(3, 0); got != 0 {
		t.Errorf("share(3, 0) = %v, want 0", got)
	}
	// Shares of one base add up: compute + control + residual = 1.
	base := 10.0
	compute, control := share(6, base), share(1.5, base)
	if residual := 1 - compute - control; math.Abs(residual-0.25) > 1e-12 {
		t.Errorf("residual share = %v, want 0.25", residual)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a) * ms, time.Duration(b) * ms} }
	for _, c := range []struct {
		name     string
		children [][2]time.Duration
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", [][2]time.Duration{iv(10, 20), iv(50, 80)}, 60 * ms},
		{"overlapping (concurrent calls)", [][2]time.Duration{iv(10, 40), iv(30, 60), iv(35, 45)}, 50 * ms},
		{"sticking out of the parent", [][2]time.Duration{iv(-10, 10), iv(90, 120)}, 80 * ms},
		{"outside the parent", [][2]time.Duration{iv(150, 160)}, 100 * ms},
		{"covering the parent", [][2]time.Duration{iv(0, 100), iv(20, 30)}, 0},
	} {
		if got := selfTime(0, 100*ms, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesBySpanName(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "member", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "scenario.build", Start: 0, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "live.run", Start: 30 * ms, End: 100 * ms},
		{ID: 4, Parent: 3, Name: "transport.pull", Start: 40 * ms, End: 60 * ms},
		{ID: 5, Parent: 3, Name: "transport.pull", Start: 50 * ms, End: 70 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"member":         0,
		"scenario.build": 30 * ms,
		"live.run":       40 * ms, // 70ms minus the union [40, 70) of its pulls
		"transport.pull": 40 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}
