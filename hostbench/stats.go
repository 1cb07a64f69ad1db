package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spreads computed here match the ones a Python script
// computes from the same values. Fewer than two values give that value
// twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// iqrShare is the distance between the quartiles of xs as a share of
// their median: the run-to-run spread a bound is compared with.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p% of the values at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// tailPercentile returns the highest whole percentile that still has at
// least ten of n samples beyond it under nearest rank, or 0 when n is
// below 11 and no percentile above the minimum qualifies.
func tailPercentile(n int) int {
	for p := 99; p > 0; p-- {
		if n-int(math.Ceil(float64(p)/100*float64(n))) >= 10 {
			return p
		}
	}
	return 0
}

// better reports whether a reads better than b for a metric whose better
// direction is dir ("lower" or "higher"). Equal values are not better.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// countWins pairs base[i] with change[i] and counts the pairs in which the
// change reads better and the pairs in which it reads worse; ties count
// for neither. Extra values on the longer side are ignored.
func countWins(base, change []float64, dir string) (wins, losses, pairs int) {
	pairs = len(base)
	if len(change) < pairs {
		pairs = len(change)
	}
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], base[i], dir):
			wins++
		case better(base[i], change[i], dir):
			losses++
		}
	}
	return wins, losses, pairs
}
