package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
		med    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3.5, 1.25, 9, 4, 4, 7.75, 2, 6, 5, 8, 10.5}, 3.5, 8, 5},
		{[]float64{5, 1}, 0, 6, 3},
		{[]float64{2, 4, 6}, 2, 6, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v; want %v", c.xs, m, c.med)
		}
	}
}

func TestIQRShare(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v; want %v", got, want)
	}
	if got := iqrShare([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("iqrShare of equal values = %v; want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v; want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v; want 0", got)
	}
}

// The highest percentile reported must keep at least ten samples beyond
// it; one percentile higher must not.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{100, 90}, {1000, 99}, {200, 95}, {20, 50}, {160, 93}, {11, 9}, {10, 0}, {0, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d; want %d", c.n, got, c.want)
		}
	}
	for n := 11; n <= 2000; n++ {
		p := tailPercentile(n)
		beyond := func(p int) int { return n - int(math.Ceil(float64(p)/100*float64(n))) }
		if beyond(p) < 10 || (p < 99 && beyond(p+1) >= 10) {
			t.Fatalf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(p), p+1, beyond(p+1))
		}
	}
}

func TestCountWinsDirectionAndTies(t *testing.T) {
	base := []float64{10, 10, 10, 10, 10}
	change := []float64{9, 11, 10, 8, 12, 1} // the sixth value has no pair
	w, l, p := countWins(base, change, "lower")
	if w != 2 || l != 2 || p != 5 {
		t.Errorf("lower: wins %d losses %d pairs %d; want 2 2 5", w, l, p)
	}
	w, l, p = countWins(base, change, "higher")
	if w != 2 || l != 2 || p != 5 {
		t.Errorf("higher: wins %d losses %d pairs %d; want 2 2 5", w, l, p)
	}
	w, _, _ = countWins([]float64{1, 1}, []float64{2, 0}, "higher")
	if w != 1 {
		t.Errorf("higher: a larger change value must win; got %d wins", w)
	}
}

func TestBetter(t *testing.T) {
	if !better(1, 2, "lower") || better(2, 1, "lower") || better(1, 1, "lower") {
		t.Error("better with lower is wrong")
	}
	if !better(2, 1, "higher") || better(1, 2, "higher") || better(1, 1, "higher") {
		t.Error("better with higher is wrong")
	}
}

func TestStolen(t *testing.T) {
	// 90 busy and 30 stolen ticks: a quarter of the wanted time was stolen.
	if got := stolen(100, 10, 190, 40); got != 0.25 {
		t.Errorf("stolen = %v; want 0.25", got)
	}
	if got := stolen(100, 10, 100, 10); got != 0 {
		t.Errorf("stolen with no ticks = %v; want 0", got)
	}
}
