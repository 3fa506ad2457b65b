//go:build !race

// The race detector's shadow allocations and its lossy sync.Pool would
// be what this file measures, so it is left out of race builds; `make
// test` runs the budget on its allocation-guard line.

package rpc

import (
	"context"
	"runtime"
	"testing"
)

// postReadingBudget bounds the heap bytes one reading costs over the RPC
// surface, both ends counted (the device's client and the gateway's server
// share the test process): tips, difficulty and submit exchanges, tip
// validation, PoW and admission. A regression guard in the style of
// txn's TestWirePathAllocationBudget, not an aspiration: a fourth round
// trip per reading, or a return to per-call url.Parse / io.ReadAll /
// json.NewEncoder on the hot path, breaks it.
const postReadingBudget = 34 << 10

// readingLoop returns a function that posts one reading from an
// authorized device through the fixture's client, after enough readings
// to warm the keep-alive connection and the buffer pools.
func readingLoop(tb testing.TB) func() {
	tb.Helper()
	f := newFixture(tb)
	dev := f.authorizedDevice(tb)
	reading := []byte("temperature=21.5C humidity=40% battery=87% seq=0000")
	post := func() {
		if _, err := dev.PostReading(context.Background(), reading); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		post()
	}
	return post
}

// TestPostReadingAllocationBudget pins bytes allocated per reading.
func TestPostReadingAllocationBudget(t *testing.T) {
	post := readingLoop(t)
	const readings = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < readings; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perReading := (after.TotalAlloc - before.TotalAlloc) / readings
	t.Logf("%d B/reading", perReading)
	if perReading > postReadingBudget {
		t.Fatalf("one reading over rpc allocates %d B, budget %d", perReading, postReadingBudget)
	}
}

func BenchmarkPostReadingOverRPC(b *testing.B) {
	post := readingLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
