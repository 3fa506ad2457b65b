package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 6 {
		t.Errorf("value = %d, want 6", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("value = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 5 {
		t.Errorf("value = %d, want 5", got)
	}
	g.Add(-100) // gauges may go negative (drained below a sampled level)
	if got := g.Value(); got != -95 {
		t.Errorf("value = %d, want -95", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("value = %d, want 0", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	if s := h.Summarize(); s.Count != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	// Quantiles come off the buckets: within the layout's stated error of
	// the exact nearest-rank values (50 ms, 95 ms).
	if !withinQuantileError(s.Median, 50*time.Millisecond) {
		t.Errorf("median = %v", s.Median)
	}
	if !withinQuantileError(s.P95, 95*time.Millisecond) {
		t.Errorf("p95 = %v", s.P95)
	}
	wantMean := 50500 * time.Microsecond
	if s.Mean != wantMean {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
	if s.Total != 5050*time.Millisecond {
		t.Errorf("total = %v", s.Total)
	}
}

// quantileRelErr is the layout's stated bound on a quantile's relative
// error between 1.024 µs and 17.2 s (metrics.go); quantileAbsErr its bound
// below 1.024 µs.
const (
	quantileRelErr = 1.0 / 21
	quantileAbsErr = 52 * time.Nanosecond
)

func withinQuantileError(got, exact time.Duration) bool {
	diff := math.Abs(float64(got - exact))
	return diff <= quantileRelErr*float64(exact) || time.Duration(diff) <= quantileAbsErr
}

// TestHistogramBucketLayout pins the layout the error bound rests on:
// every sample lands in a bucket whose range holds it, buckets are
// contiguous and in order, and the counts fit in 1 KiB.
func TestHistogramBucketLayout(t *testing.T) {
	if size := unsafe.Sizeof([histBuckets]atomic.Uint32{}); size > 1024 {
		t.Fatalf("bucket array is %d bytes, want ≤ 1 KiB", size)
	}
	for b := 1; b < histBuckets; b++ {
		_, prevHi := histBounds(b - 1)
		if lo, hi := histBounds(b); lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d is [%v, %v) after one ending at %v", b, lo, hi, prevHi)
		}
	}
	rng := rand.New(rand.NewSource(1))
	check := func(v uint64) {
		b := histBucket(v)
		if lo, hi := histBounds(b); float64(v) < lo || float64(v) >= hi {
			t.Fatalf("%d ns lands in bucket %d = [%v, %v)", v, b, lo, hi)
		}
		if est := histEstimate(b, math.MaxInt64); b < histBuckets-1 && !withinQuantileError(est, time.Duration(v)) {
			t.Fatalf("%d ns reads back as %v from bucket %d", v, est, b)
		}
	}
	for k := 0; k < 63; k++ {
		for _, v := range []uint64{1<<k - 1, 1 << k, 1<<k + 1, 1<<k + uint64(rng.Int63n(1<<k))} {
			check(v)
		}
	}
	check(math.MaxInt64)
}

// TestHistogramQuantilesWithinStatedError holds Median and P95 against an
// exact sort of the same samples on three shapes: uniform, log-normal
// (the long right tail of a latency) and bimodal (a cache hit and a miss).
func TestHistogramQuantilesWithinStatedError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() time.Duration{
		"uniform": func() time.Duration { return time.Duration(rng.Int63n(int64(20 * time.Millisecond))) },
		"log-normal": func() time.Duration {
			return time.Duration(math.Exp(rng.NormFloat64()*1.5 + math.Log(float64(200*time.Microsecond))))
		},
		"bimodal": func() time.Duration {
			if rng.Intn(10) < 7 {
				return time.Duration(2000 + rng.Int63n(500))
			}
			return 5*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		},
	}
	for name, draw := range shapes {
		for _, n := range []int{1, 2, 19, 1000, 100_000} {
			var h Histogram
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = draw()
				h.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			exact := func(q float64) time.Duration { return samples[nearestRank(uint64(n), q)-1] }
			s := h.Summarize()
			if s.Count != n || s.Min != samples[0] || s.Max != samples[n-1] {
				t.Errorf("%s n=%d: count/min/max = %d/%v/%v, want %d/%v/%v", name, n, s.Count, s.Min, s.Max, n, samples[0], samples[n-1])
			}
			var total time.Duration
			for _, d := range samples {
				total += d
			}
			if s.Total != total || s.Mean != total/time.Duration(n) {
				t.Errorf("%s n=%d: total/mean = %v/%v, want %v/%v", name, n, s.Total, s.Mean, total, total/time.Duration(n))
			}
			if !withinQuantileError(s.Median, exact(0.5)) || !withinQuantileError(s.P95, exact(0.95)) {
				t.Errorf("%s n=%d: median/p95 = %v/%v, exact %v/%v", name, n, s.Median, s.P95, exact(0.5), exact(0.95))
			}
		}
	}
}

// TestHistogramConcurrentObserveAndSummarize runs writers against a
// reader (meaningful under -race): every summary stays internally sane
// while samples land, and the final one counts every sample exactly.
func TestHistogramConcurrentObserveAndSummarize(t *testing.T) {
	const writers, each = 4, 5000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				h.Observe(time.Duration(i*(w+1)) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if s := h.Summarize(); s.Count > 0 && (s.Median < s.Min || s.P95 > s.Max || s.Median > s.P95) {
			t.Fatalf("summary out of order mid-run: %+v", s)
		}
	}
	s := h.Summarize()
	if s.Count != writers*each || h.Count() != writers*each {
		t.Fatalf("count = %d / %d, want %d", s.Count, h.Count(), writers*each)
	}
	if s.Min != time.Microsecond || s.Max != writers*each*time.Microsecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

// TestHistogramZeroValue: a histogram nobody observed summarizes to the
// zero Summary and allocates nothing; zero and negative samples are
// samples of zero.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if s := h.Summarize(); s != (Summary{}) || h.Count() != 0 || h.counts.Load() != nil {
		t.Fatalf("zero histogram: %+v, count %d", s, h.Count())
	}
	h.Observe(0)
	h.Observe(-time.Second)
	if s := h.Summarize(); s.Count != 2 || s.Min != 0 || s.Max != 0 || s.Median != 0 || s.P95 != 0 || s.Total != 0 {
		t.Fatalf("after two zero samples: %+v", s)
	}
}

func TestHistogramObserveAfterSummarize(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Millisecond)
	_ = h.Summarize()
	h.Observe(time.Millisecond) // must re-sort internally
	s := h.Summarize()
	if s.Min != time.Millisecond {
		t.Errorf("min = %v after late observation", s.Min)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7 * time.Millisecond)
	s := h.Summarize()
	if s.Min != s.Max || s.Median != s.Min || s.P95 != s.Min {
		t.Errorf("single-sample summary = %+v", s)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if h.Summarize().String() == "" {
		t.Error("empty summary string")
	}
}

// TestAppendPrometheus pins the exposition's names and shape: snake-case
// names under the prefix, _total on counters, cumulative buckets that end
// at +Inf = _count, _sum in seconds, unexported fields skipped.
func TestAppendPrometheus(t *testing.T) {
	var set struct {
		GossipIn     Counter
		QueueDepth   Gauge
		ExchangeRTT  Histogram
		AdmitLatency Histogram
		private      Counter
	}
	set.GossipIn.Add(3)
	set.QueueDepth.Set(-2)
	set.ExchangeRTT.Observe(2 * time.Millisecond)
	set.ExchangeRTT.Observe(3 * time.Millisecond)
	set.ExchangeRTT.Observe(time.Second)
	got := string(AppendPrometheus(nil, "biot", &set))
	for _, want := range []string{
		"# TYPE biot_gossip_in_total counter\nbiot_gossip_in_total 3\n",
		"# TYPE biot_queue_depth gauge\nbiot_queue_depth -2\n",
		"# TYPE biot_exchange_rtt_seconds histogram\n",
		`biot_exchange_rtt_seconds_bucket{le="+Inf"} 3` + "\n",
		"biot_exchange_rtt_seconds_sum 1.005\nbiot_exchange_rtt_seconds_count 3\n",
		`biot_admit_latency_seconds_bucket{le="+Inf"} 0` + "\nbiot_admit_latency_seconds_sum 0\nbiot_admit_latency_seconds_count 0\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "private") {
		t.Errorf("exposition has an unexported field:\n%s", got)
	}
	if buckets := strings.Count(got, "biot_exchange_rtt_seconds_bucket"); buckets != 4 {
		t.Errorf("%d bucket lines for three samples in three buckets, want 4 with +Inf:\n%s", buckets, got)
	}
}

// TestAppendPrometheusReadsIntegerFieldsAsGauges: a snapshot struct's
// integer fields are gauges under their snake-case names; other plain
// fields (a map, a string) are skipped.
func TestAppendPrometheusReadsIntegerFieldsAsGauges(t *testing.T) {
	set := struct {
		JournalBytes   int
		ReconcileLagMS int64
		HeapInuse      uint64
		ShardResidents map[uint32]int
		Name           string
	}{JournalBytes: 7, ReconcileLagMS: -1, HeapInuse: 1 << 20, ShardResidents: map[uint32]int{0: 7}, Name: "x"}
	got := string(AppendPrometheus(nil, "biot_memory", set))
	want := "# TYPE biot_memory_journal_bytes gauge\nbiot_memory_journal_bytes 7\n" +
		"# TYPE biot_memory_reconcile_lag_ms gauge\nbiot_memory_reconcile_lag_ms -1\n" +
		"# TYPE biot_memory_heap_inuse gauge\nbiot_memory_heap_inuse 1.048576e+06\n"
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
