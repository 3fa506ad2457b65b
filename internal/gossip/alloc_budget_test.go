//go:build !race

package gossip

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation guard for one exchange as the full node's fan-out makes it:
// a one-transaction MsgTransaction batch over loopback TCP, answered with
// the empty ack, measured process-wide — the dialing side's Request, call
// record, reply wait and read loop, and the accepting side's frame loop
// and reply, all at once. On go1.24 linux/amd64 it measured 560 B in 10
// allocations while every exchange made its own reply channel, call
// record and timer, read both frame headers into fresh arrays, kept its
// reply frame and decoded the batch into fresh headers. With pooled
// records, headers read in place, the ack's frame recycled and the
// batch's headers decoded into the connection's scratch it measures 0 B
// in 0 allocations. A tenth above nothing is nothing, so the budget is a
// tenth of an allocation and 16 B an exchange: room for the runtime's own
// odd allocation inside the window, none for a per-exchange one.
const (
	exchangeBytesBudget  = 16
	exchangeAllocsBudget = 0.1
)

func TestExchangeAllocationBudget(t *testing.T) {
	const exchanges = 2000
	quiet := HandlerFunc(func(string, Message) (*Message, error) { return nil, nil })
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	a.SetHandler(quiet)
	b.SetHandler(quiet)
	a.AddPeer(b.Self())

	tx := make([]byte, 160) // a reading's encoding is about this long
	msg := Message{Type: MsgTransaction, TxData: [][]byte{tx}, Scoped: true}
	ctx, peer := context.Background(), b.Self()
	exchange := func() {
		if _, err := a.Request(ctx, peer, msg); err != nil {
			t.Fatal(err)
		}
	}
	// A pool's cache is per P and a collection empties it: one P, no
	// collection inside the window, and a warm-up that dials and fills
	// the pools the window then draws on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 100 {
		exchange()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range exchanges {
		exchange()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / exchanges
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / exchanges
	t.Logf("%.2f allocations, %.0f bytes allocated per one-transaction exchange", allocs, bytes)
	if allocs > exchangeAllocsBudget || bytes > exchangeBytesBudget {
		t.Errorf("a one-transaction exchange costs %.2f allocations and %.0f bytes, budget %.1f and %d",
			allocs, bytes, exchangeAllocsBudget, exchangeBytesBudget)
	}
}
