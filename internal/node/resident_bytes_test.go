//go:build !race

package node_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// TestResidentBytesPerRelayedTransaction is the node-level companion of
// tangle's TestBytesPerAttachedVertex: what a journal-less relay's heap
// still holds per transaction once a gossiped batch has been decoded,
// verified, gated, attached and its credit record written, and the handler
// has returned — the vertex and its encoding, plus what the node keeps
// beside the ledger (the credit ledger's packed record and its index
// slot; the latency histograms are fixed-size). It is RAM per resident
// transaction per node: times the transactions a keep-window holds, a
// gateway's working set (README ops notes). On go1.24 linux/amd64 this
// fixture measured 1 060 bytes at ec4e636, where the ledger kept a decoded
// txn.Transaction and its encoding cache beside each encoding, 756 at
// 23a5d40, where the credit ledger kept a core.TxRecord and a map slot per
// record and every stage appended its latency samples to a slice, and
// measures 641 now; the bound is that figure plus 10 %.
func TestResidentBytesPerRelayedTransaction(t *testing.T) {
	const (
		n     = 4000
		batch = 16
		bound = 705 // bytes per relayed transaction; see above
	)
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{}
	relay := newRelay(t, mgrKey, net)
	net.mu.Lock()
	handler := net.handler
	net.mu.Unlock()

	// Encodings first, so that the measured interval allocates only what
	// relaying retains (plus garbage the collection below removes).
	reading := strings.Repeat("r", 64) // the benchmark's reading size
	floor := testParams().MinDifficulty
	g := genesisIDs(t, relay)
	trunk, branch := g[0], g[1]
	wire := make([][]byte, n)
	for i := range wire {
		tx := craftTx(mgrKey, txn.KindData, []byte(fmt.Sprintf("%s%06d", reading, i)), trunk, branch, time.Now(), floor)
		wire[i] = tx.Encode()
		trunk, branch = tx.ID(), trunk
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for at := 0; at < n; at += batch {
		msg := gossip.Message{Type: gossip.MsgTransaction, TxData: wire[at:min(at+batch, n)]}
		if _, err := handler.HandleGossip("gateway:5600", msg); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if got := relay.Tangle().Size(); got != n+2 {
		t.Fatalf("relay holds %d transactions, want %d", got, n+2)
	}
	perTx := (after - before) / n
	t.Logf("%d bytes retained per relayed transaction", perTx)
	if perTx > bound {
		t.Errorf("%d bytes retained per relayed transaction, want ≤ %d", perTx, bound)
	}
	runtime.KeepAlive(relay)
	runtime.KeepAlive(wire)
}
