//go:build !race

// The race detector's shadow allocations and its lossy sync.Pool would
// be what this file measures, so it is left out of race builds; `make
// test` runs the budget on its allocation-guard line.

package identity

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestVerifyBatchAllocationBudget pins what an all-valid batch of 64 — the
// node's chunk — costs once the scratch pools are warm: nothing but the
// amortised share of a pool refill after a collection. It was 395
// allocations and 232 320 B — the kernel's tables and NAFs, two points,
// five scalars and a SHA-512 state a signature — before the equation
// worked out of a pooled scratch.
func TestVerifyBatchAllocationBudget(t *testing.T) {
	const (
		n           = 64
		allocBudget = 4
		byteBudget  = 1 << 10
	)
	pubs, msgs, sigs := buildBatch(t, rand.New(rand.NewSource(17)), make([]batchCase, n))
	verify := func() {
		if errs := VerifyBatch(pubs, msgs, sigs); errs != nil {
			t.Fatalf("valid batch rejected: %v", errs)
		}
	}
	verify() // warm the pools

	if allocs := testing.AllocsPerRun(50, verify); allocs > allocBudget {
		t.Errorf("a batch of %d allocates %v times, budget %d", n, allocs, allocBudget)
	}
	// Bytes are taken as the least of a few windows: a pool refill — after
	// a collection, or on a P the warm-up did not run on — is a quarter of
	// a megabyte once, while a kernel that allocates does so every batch.
	const windows, batches = 5, 20
	perBatch := ^uint64(0)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < batches; i++ {
			verify()
		}
		runtime.ReadMemStats(&after)
		perBatch = min(perBatch, (after.TotalAlloc-before.TotalAlloc)/batches)
	}
	t.Logf("%d B/batch", perBatch)
	if perBatch > byteBudget {
		t.Errorf("a batch of %d allocates %d B, budget %d", n, perBatch, byteBudget)
	}
}

// TestVerifyAllocatesNothing pins a single Verify of a valid triple at
// zero allocations: a gateway pays it on every reading, and it works on
// the stack.
func TestVerifyAllocatesNothing(t *testing.T) {
	pubs, msgs, sigs := buildBatch(t, rand.New(rand.NewSource(19)), make([]batchCase, 1))
	verify := func() {
		if err := Verify(pubs[0], msgs[0], sigs[0]); err != nil {
			t.Fatalf("valid signature refused: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(100, verify); allocs != 0 {
		t.Errorf("a Verify allocates %v times, want 0", allocs)
	}
}
