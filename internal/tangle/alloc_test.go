//go:build !race

package tangle

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// TestAttachAllocationBudget is the guard on what an attach allocates
// beyond the vertex it keeps, averaged over growing a ledger to 16 000
// vertices, so that the growth of the ID table and of the attachment-order
// indexes is counted with it. The transactions are viewed in place, so
// nothing else is allocated per attach but the direct approver lists. On
// go1.24 linux/amd64 a map and four growing slices (the first-approval
// queue among them) measured 363 bytes; the seeded pointer table and the
// paged indexes measure 84: ≈ 32 for the table's doublings, ≈ 24 for
// three index pages' worth of words, 24 for approver lists.
func TestAttachAllocationBudget(t *testing.T) {
	const (
		n      = 16_000
		budget = 92 // bytes per attach beyond the vertex; see above
		// vertexHeap is what the allocator hands out for one vertex: the
		// 128-byte size class, which holds structs of 113 to 128 bytes.
		vertexHeap = 128
	)
	if size := unsafe.Sizeof(vertex{}); size <= 112 || size > vertexHeap {
		t.Fatalf("vertex struct is %d bytes, outside the %d-byte size class this guard subtracts", size, vertexHeap)
	}
	tg, key := newTangle(t, DefaultConfig(), nil)
	views, ids := make([]txn.View, n), make([]hashutil.Hash, n)
	trunk, branch := tg.Genesis()[0], tg.Genesis()[1]
	for i := range views {
		tx := buildTx(t, tg, key, trunk, branch, fmt.Sprintf("reading-%06d", i))
		views[i], ids[i] = tx.View(), tx.ID()
		trunk, branch = ids[i], trunk
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range views {
		if _, err := tg.AttachShard(views[i], ids[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc-before.TotalAlloc)/n - vertexHeap
	t.Logf("%d bytes allocated per attach beyond its vertex (%.2f allocations)", per, float64(after.Mallocs-before.Mallocs)/n)
	if per > budget {
		t.Errorf("%d bytes allocated per attach beyond its vertex, want ≤ %d", per, budget)
	}
}
