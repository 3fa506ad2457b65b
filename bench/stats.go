package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to describe the tail rather than one or two outliers.
const minBeyond = 10

// percentileLadder lists the percentiles the benchmark may report, in
// rising order, each with the share of samples beyond it per thousand.
var percentileLadder = []struct {
	p              float64
	beyondPerMille int
}{{50, 500}, {90, 100}, {99, 10}, {99.9, 1}}

// highestPercentile returns the highest percentile of the ladder that
// still has at least minBeyond of n samples beyond it, and false when
// not even the median has.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, step := range percentileLadder {
		if n*step.beyondPerMille/1000 >= minBeyond {
			best, ok = step.p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of an ascending
// slice (0 for an empty one).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) gives
// them — the driver that accepts the benchmark computes spreads that
// way, so -compare must too.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts to milliseconds, ascending.
func durationsMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	sort.Float64s(out)
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
