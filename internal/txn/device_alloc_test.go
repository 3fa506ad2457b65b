//go:build !race

package txn

import (
	"runtime"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// The race detector's instrumentation moves Sign's stack buffer to the
// heap, so this guard runs without it, like the node's.

// The device's side: building, signing, mining, identifying and viewing a
// 64-byte reading measured 7 allocations and 896 B on go1.24 linux/amd64
// while Sign encoded the signing prefix on the heap and ID published a
// second snapshot, and measures 5 and 624 B now; the budget is that
// figure plus about 5 %.
const (
	deviceBuildAllocsBudget = 5
	deviceBuildBytesBudget  = 660
)

// TestDeviceBuildAllocationBudget pins what a device's reading costs
// before it leaves: build the transaction, sign it, store the mined nonce,
// identify it and view it — the order a gateway's Submit asks for the two.
// The transaction, its signature and the one encoding snapshot that
// carries the digest are all it may allocate; the signing prefix is
// encoded on the stack.
func TestDeviceBuildAllocationBudget(t *testing.T) {
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	trunk, branch := hashutil.Sum([]byte("alloc-trunk")), hashutil.Sum([]byte("alloc-branch"))
	payload := make([]byte, 64) // the benchmark's reading size
	var sink hashutil.Hash
	build := func(nonce uint64) {
		tx := &Transaction{Trunk: trunk, Branch: branch, Timestamp: time.Unix(1_700_000_000, 0), Kind: KindData, Payload: payload}
		tx.Sign(key)
		tx.Nonce = nonce
		sink = tx.ID()
		_ = tx.View()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build(0)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		build(uint64(i))
	}
	runtime.ReadMemStats(&after)
	_ = sink
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.1f allocations, %.0f bytes to build, sign, mine, identify and view a reading", allocs, bytes)
	if allocs > deviceBuildAllocsBudget || bytes > deviceBuildBytesBudget {
		t.Errorf("a reading costs %.1f allocations and %.0f bytes to build, budget %d and %d",
			allocs, bytes, deviceBuildAllocsBudget, deviceBuildBytesBudget)
	}
}
