//go:build !race

package metrics

import (
	"runtime"
	"testing"
	"time"
)

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestHistogramMemoryIsFlat is the guard ROADMAP item 1 asked for: a
// histogram's memory does not grow with its samples. At 23a5d40 every
// sample was appended to a slice, 8 B each forever — 8 MB here. The
// runtime itself now and then allocates a few KiB mid-loop (a new M when
// the world restarts after a collection), so the check is on the
// smallest growth of three rounds: a leak grows every round.
func TestHistogramMemoryIsFlat(t *testing.T) {
	const n = 1_000_000
	var h Histogram
	h.Observe(time.Millisecond) // the one allocation: the buckets
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(time.Second) }); allocs != 0 {
		t.Fatalf("Observe allocates %v times a call, want 0", allocs)
	}
	least := int64(1 << 62)
	for round := 0; round < 3; round++ {
		before := heapAlloc()
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		grew := int64(heapAlloc()) - int64(before)
		t.Logf("round %d: %d Observes moved HeapAlloc by %d bytes", round, n, grew)
		least = min(least, max(grew, -grew))
	}
	if least > 1024 {
		t.Errorf("%d Observes moved HeapAlloc by at least %d bytes in every round, want within ±1 KiB", n, least)
	}
}

// TestBytesPerHistogram reports what one observed histogram holds — the
// struct and its buckets — for `make mem`; the bound is the layout's.
func TestBytesPerHistogram(t *testing.T) {
	const n = 1000
	hs := make([]*Histogram, n)
	before := heapAlloc()
	for i := range hs {
		hs[i] = &Histogram{}
		hs[i].Observe(time.Duration(i) * time.Millisecond)
	}
	after := heapAlloc()
	per := (after - before) / n
	t.Logf("%d bytes retained per observed histogram", per)
	if per > 1024+64 {
		t.Errorf("%d bytes per observed histogram, want ≤ %d", per, 1024+64)
	}
	runtime.KeepAlive(hs)
}
