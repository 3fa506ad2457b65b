// Package metrics provides the light-weight instrumentation a node keeps
// for its whole life and the evaluation harness reads: counters, gauges,
// fixed-size latency histograms with quantile summaries, and their
// Prometheus text exposition.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (negative deltas are ignored; counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous level (queue depth, in-flight work). Unlike
// Counter it moves in both directions. Safe for concurrent use.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add moves the gauge by delta (positive or negative).
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// StoreMax raises the gauge to v if v exceeds the current value — a
// lock-free running maximum (peak queue depth, longest observed walk).
func (g *Gauge) StoreMax(v int64) {
	for {
		cur := g.n.Load()
		if v <= cur || g.n.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.n.Load() }

// The histogram's bucket layout, a constant: octave zero, [0, 2^histLo)
// ns, is cut into histSub equal buckets; each of the histOctaves octaves
// above it, [2^k, 2^(k+1)) ns, into histSub equal sub-buckets; one
// overflow bucket takes everything from 2^(histLo+histOctaves) ns ≈ 17.2 s
// up. A quantile is read as the bucket holding its rank, so its error is
// that bucket's: ≤ 51.2 ns below 1.024 µs, and between 1.024 µs and 17.2 s
// at most (b−a)/(a+b) ≤ 1/21 < 4.8 % of the exact value for the harmonic
// mean of a sub-bucket [a, b) — the widest relative to its values is the
// first of an octave, b = 1.1a. Above 17.2 s a quantile reads as Max.
const (
	histSub     = 10
	histLo      = 10
	histOctaves = 24
	histBuckets = histSub*(histOctaves+1) + 1 // 251 × 4 B: the 1 KiB a histogram costs
)

// histBucket maps a sample in nanoseconds to its bucket.
func histBucket(v uint64) int {
	if v < 1<<histLo {
		return int(v * histSub >> histLo)
	}
	k := bits.Len64(v) - 1
	if k >= histLo+histOctaves {
		return histBuckets - 1
	}
	return histSub*(k-histLo+1) + int((v-1<<k)*histSub>>k)
}

// histBounds returns bucket b's range [lo, hi) in nanoseconds; the
// overflow bucket's hi is +Inf.
func histBounds(b int) (lo, hi float64) {
	if b == histBuckets-1 {
		return 1 << (histLo + histOctaves), math.Inf(1)
	}
	octave, j := b/histSub, float64(b%histSub)
	if octave == 0 {
		w := float64(1<<histLo) / histSub
		return j * w, (j + 1) * w
	}
	base := float64(uint64(1) << (histLo + octave - 1))
	return base * (1 + j/histSub), base * (1 + (j+1)/histSub)
}

// histEstimate is the value a quantile falling in bucket b reads as: the
// midpoint in octave zero (absolute error), the harmonic mean of the
// bounds above it (relative error), and max in the overflow bucket.
func histEstimate(b int, maxSample time.Duration) time.Duration {
	if b == histBuckets-1 {
		return maxSample
	}
	lo, hi := histBounds(b)
	if b < histSub {
		return time.Duration((lo + hi) / 2)
	}
	return time.Duration(2 * lo * hi / (lo + hi))
}

// Histogram summarizes duration samples in fixed memory: exact count,
// total, minimum and maximum, and quantiles from a log-linear bucket count
// (the layout above). Observe is a few atomic operations and allocates
// only the first time, the 1 KiB of buckets; the zero value is ready to
// use. Safe for concurrent use: Summarize holds no lock against Observe,
// so a summary taken while samples land may count some of them in one
// field and not yet in another. A bucket saturates at 2^32 − 1 samples.
type Histogram struct {
	count  atomic.Int64
	total  atomic.Int64 // nanoseconds
	max    atomic.Int64
	minInv atomic.Int64 // math.MaxInt64 − min, so that the zero value means "no minimum yet"
	counts atomic.Pointer[[histBuckets]atomic.Uint32]
}

// Observe records one sample. A negative duration counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := max(int64(d), 0)
	counts := h.counts.Load()
	if counts == nil {
		h.counts.CompareAndSwap(nil, new([histBuckets]atomic.Uint32))
		counts = h.counts.Load()
	}
	if c := &counts[histBucket(uint64(v))]; c.Add(1) == 0 {
		c.Store(math.MaxUint32) // saturate rather than wrap
	}
	h.total.Add(v)
	// Max before min before count, the reverse of Summarize's reads: a
	// summary that counts this sample sees its extremes too.
	storeMax(&h.max, v)
	storeMax(&h.minInv, math.MaxInt64-v)
	h.count.Add(1)
}

// storeMax raises a to v if v exceeds it.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count.Load()) }

// Summary holds descriptive statistics of a histogram.
type Summary struct {
	Count  int
	Min    time.Duration
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	Max    time.Duration
	Total  time.Duration
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v mean=%v median=%v p95=%v max=%v",
		s.Count, s.Min, s.Mean, s.Median, s.P95, s.Max)
}

// Summarize computes descriptive statistics over the samples in
// O(buckets). Count, Min, Max, Total and Mean are exact; Median and P95
// are nearest-rank quantiles read off the buckets (error as stated at the
// layout) and clamped into [Min, Max].
func (h *Histogram) Summarize() Summary {
	n := h.count.Load()
	if n == 0 {
		return Summary{}
	}
	s := Summary{Count: int(n)}
	s.Min = time.Duration(math.MaxInt64 - h.minInv.Load())
	s.Max = time.Duration(h.max.Load())
	s.Total = time.Duration(h.total.Load())
	s.Mean = s.Total / time.Duration(n)
	s.Median, s.P95 = s.Min, s.Min
	counts := h.counts.Load()
	if counts == nil {
		return s
	}
	var snap [histBuckets]uint32
	var m uint64
	for i := range counts {
		snap[i] = counts[i].Load()
		m += uint64(snap[i])
	}
	clamp := func(d time.Duration) time.Duration { return min(max(d, s.Min), s.Max) }
	rankMedian, rankP95 := nearestRank(m, 0.5), nearestRank(m, 0.95)
	var seen uint64
	for b, c := range snap {
		if c == 0 {
			continue
		}
		if seen < rankMedian && seen+uint64(c) >= rankMedian {
			s.Median = clamp(histEstimate(b, s.Max))
		}
		seen += uint64(c)
		if seen >= rankP95 {
			s.P95 = clamp(histEstimate(b, s.Max))
			break
		}
	}
	return s
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(n uint64, q float64) uint64 {
	return min(max(uint64(math.Ceil(q*float64(n))), 1), n)
}
