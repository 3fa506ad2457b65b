//go:build !race

// The race detector's shadow allocations and its lossy sync.Pool would
// be what this file measures, so it is left out of race builds; `make
// test` runs the budget on its allocation-guard line.

package identity

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
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

// TestBytesPerExpandedKey pins what the key table keeps for each key it
// holds — one immutable entry of the 32 key bytes, −A and −[2^128]A — and
// states the table's worst case, every slot full. `make mem` prints both.
func TestBytesPerExpandedKey(t *testing.T) {
	const keys, byteBudget = 1024, 384
	pubs, msgs, sigs := buildBatch(t, rand.New(rand.NewSource(29)), make([]batchCase, keys))
	resetKeyTable()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and the pools' victim caches with it
	runtime.ReadMemStats(&before)
	for i := range pubs {
		if err := Verify(pubs[i], msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := 0
	for i := range keySlots {
		if keySlots[i].Load() != nil {
			held++
		}
	}
	perKey := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(held)
	entry := int(unsafe.Sizeof(expandedKey{}))
	t.Logf("%d bytes retained per expanded key (%d held of %d checked; entry %d B); the table's worst case %d slots × (8 + %d) B = %d KiB",
		perKey, held, keys, entry, keyTableSlots, entry, keyTableSlots*(8+entry)>>10)
	if perKey > byteBudget {
		t.Errorf("an expanded key retains %d B, budget %d", perKey, byteBudget)
	}
	runtime.KeepAlive(pubs)
	runtime.KeepAlive(msgs)
	runtime.KeepAlive(sigs)
}
