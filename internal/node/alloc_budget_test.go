//go:build !race

package node_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// Allocation guards for the two bulk edges, a relayed batch and a journal
// replay: what each allocates per transaction beyond the one copy of its
// encoding the ledger keeps — the vertex, the credit record, index growth,
// the edge's own scratch. On go1.24 linux/amd64 the fixtures measured
// 1 092 B in 4.1 allocations (relay) and 1 030 B in 4.2 (replay) per
// transaction while every edge decoded each one into a txn.Transaction,
// and measured 751 B in 3.0 and 857 B in 3.2 once they carried views of
// bytes; the budgets are those figures plus about 10 %. (The ledger's
// indexes no longer re-copy themselves as they grow, and the two measure
// 561 B and 664 B; the budgets were left where they were.) A Submit of a
// pre-mined transaction measured 3.0 allocations and 746 B while the
// submission edge checked its own signature; its budget, that figure plus
// 10 %, holds it there now that the signature is settled by the verify
// stage like a relayed batch of one.
//
// On a node that journals over a disk that allocates nothing, the same
// relayed batches (warmed longer: see relayBatchCost) measured 7.1
// allocations and ≈ 1 600 B and the same Submit 9.0 and 1 298 B while each
// record was framed into a copy of its own and acknowledged through a
// request, a channel and a closure. Queued as the ledger's bytes and
// acknowledged by attach sequence, they measure 3.0 and 762 B and 3.0 and
// 746 B, what a journal-less node does; the budgets are those figures plus
// about 10 %.
const (
	relayBatchBytesBudget  = 830
	relayBatchAllocsBudget = 3.3
	replayBytesBudget      = 945
	replayAllocsBudget     = 3.5
	submitBytesBudget      = 820
	submitAllocsBudget     = 3.3

	journaledRelayBytesBudget   = 840
	journaledRelayAllocsBudget  = 3.3
	journaledSubmitBytesBudget  = 820
	journaledSubmitAllocsBudget = 3.3

	compactBytesBudget  = 365
	compactAllocsBudget = 0.1
)

// TestCompactJournalAllocationBudget: Compact on a relay that journaled
// 2 048 relayed transactions over quietFS, all younger than keep, so the
// snapshot drops nothing — what rewriting the journal allocates per record
// it writes. On go1.24 linux/amd64 it measured
// 3.0 allocations and 713 B per record while the rewrite cloned and
// re-encoded every resident transaction and framed each record into a
// buffer of its own; it measures 0.00 allocations and 332 B — the segment
// buffer, and the page of IDs and encodings it is framed from — now that
// the ledger's own encodings are framed into one buffer. The byte budget is
// that figure plus about 10 %; the allocation budget is a floor, since 10 %
// of nothing would fail on any allocation the runtime makes in the window.
func TestCompactJournalAllocationBudget(t *testing.T) {
	const batch, records = 64, 2048
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{}
	relay := newJournalingRelay(t, mgrKey, net, quietFS{}, "relay.journal")
	t.Cleanup(func() { _ = relay.ClosePersistence() })
	txs := chainedTxs(t, mgrKey, records)
	for at := 0; at < records; at += batch {
		wire := make([][]byte, batch)
		for i, tx := range txs[at : at+batch] {
			wire[i] = tx.Encode()
		}
		if _, err := net.handler.HandleGossip("gateway:5600", gossip.Message{Type: gossip.MsgTransaction, TxData: wire}); err != nil {
			t.Fatal(err)
		}
	}
	for relay.UnflushedJournal() > 0 {
		runtime.Gosched()
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, compacted, err := relay.Compact(time.Hour)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if compacted != records {
		t.Fatalf("compacted %d records, want %d", compacted, records)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / records
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / records
	t.Logf("%.2f allocations, %.0f bytes allocated per compacted record", allocs, bytes)
	if allocs > compactAllocsBudget || bytes > compactBytesBudget {
		t.Errorf("a compacted record costs %.2f allocations and %.0f bytes, budget %.2f and %d",
			allocs, bytes, compactAllocsBudget, compactBytesBudget)
	}
}

// beyondResidentCopy runs admit, which attaches txs, and returns the heap
// allocations and bytes it made per transaction beyond one allocation of
// each transaction's encoding.
func beyondResidentCopy(txs []*txn.Transaction, admit func()) (allocs, bytes float64) {
	encoded := 0
	for _, tx := range txs {
		encoded += len(tx.Encode())
	}
	// No collection inside the window: one would empty the pools the
	// verify kernel and admitGossipBatch keep their scratch in, and the
	// refill would be counted. Nor a forced one just before it: runtime.GC
	// finishes a cycle already under way and then runs its own, and two
	// cycles empty a pool. Whatever earlier collections left, the kernel's
	// scratch is primed once collection is off. (The tests run on one P
	// for the same reason: a pool's cache is per P.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	primeVerifyKernel(txs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	admit()
	runtime.ReadMemStats(&after)
	n := float64(len(txs))
	return float64(after.Mallocs-before.Mallocs)/n - 1, float64(after.TotalAlloc-before.TotalAlloc-uint64(encoded)) / n
}

// primeVerifyKernel batch-verifies one full verify chunk of txs's
// signatures, leaving the kernel's pooled scratch at the size the node's
// chunks need.
func primeVerifyKernel(txs []*txn.Transaction) {
	txs = txs[:min(len(txs), node.BatchVerifyChunk)]
	pubs := make([]identity.PublicKey, len(txs))
	msgs, sigs := make([][]byte, len(txs)), make([][]byte, len(txs))
	for i, tx := range txs {
		v := tx.View()
		pubs[i], msgs[i], sigs[i] = v.Issuer(), v.SigningBytes(), v.Signature()
	}
	if errs := identity.VerifyBatch(pubs, msgs, sigs); errs != nil {
		panic(fmt.Sprintf("priming the verify kernel: %v", errs))
	}
}

// TestRelayBatchAllocationBudget: 64-transaction relayed batches through
// admitGossipBatch, on a journal-less relay.
func TestRelayBatchAllocationBudget(t *testing.T) {
	allocs, bytes := relayBatchCost(t, false)
	t.Logf("%.1f allocations, %.0f bytes allocated per relayed transaction beyond its resident copy", allocs, bytes)
	if allocs > relayBatchAllocsBudget || bytes > relayBatchBytesBudget {
		t.Errorf("a relayed transaction costs %.1f allocations and %.0f bytes beyond its resident copy, budget %.1f and %d",
			allocs, bytes, relayBatchAllocsBudget, relayBatchBytesBudget)
	}
}

// TestJournaledRelayBatchAllocationBudget: the same batches on a relay
// that journals what it attaches, over a disk that allocates nothing; the
// window closes once every record queued has been flushed.
func TestJournaledRelayBatchAllocationBudget(t *testing.T) {
	allocs, bytes := relayBatchCost(t, true)
	t.Logf("%.1f allocations, %.0f bytes allocated per journaled relayed transaction beyond its resident copy", allocs, bytes)
	if allocs > journaledRelayAllocsBudget || bytes > journaledRelayBytesBudget {
		t.Errorf("a journaled relayed transaction costs %.1f allocations and %.0f bytes beyond its resident copy, budget %.1f and %d",
			allocs, bytes, journaledRelayAllocsBudget, journaledRelayBytesBudget)
	}
}

// relayBatchCost delivers 64-transaction batches to a relay, journaling
// over quietFS or not, and measures the later ones.
func relayBatchCost(t *testing.T, journaled bool) (allocs, bytes float64) {
	const batch, measured = 64, 16
	warm := 4
	if journaled {
		// Until the committer's queue and write buffer have grown to what
		// the measured batches need, growing them is counted.
		warm = measured
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{}
	relay := newRelay(t, mgrKey, net)
	if journaled {
		if _, err := relay.EnablePersistenceFS(quietFS{}, "relay.journal"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = relay.ClosePersistence() })
	}
	txs := chainedTxs(t, mgrKey, batch*(warm+measured))
	wire := make([][]byte, len(txs))
	for i, tx := range txs {
		wire[i] = tx.Encode()
	}
	deliver := func(from, to int) {
		for at := from; at < to; at += batch {
			msg := gossip.Message{Type: gossip.MsgTransaction, TxData: wire[at : at+batch]}
			if _, err := net.handler.HandleGossip("gateway:5600", msg); err != nil {
				t.Fatal(err)
			}
		}
		for relay.UnflushedJournal() > 0 {
			runtime.Gosched() // the committer's flushes are part of the cost
		}
	}
	deliver(0, batch*warm)
	allocs, bytes = beyondResidentCopy(txs[batch*warm:], func() { deliver(batch*warm, len(txs)) })
	if got := relay.Tangle().Size(); got != len(txs)+2 {
		t.Fatalf("relay holds %d transactions, want %d", got, len(txs)+2)
	}
	return allocs, bytes
}

// TestReplayAllocationBudget: a gateway booting on a 1 000-record journal.
func TestReplayAllocationBudget(t *testing.T) {
	const records = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	txs := chainedTxs(t, mgrKey, records)
	fs := chaos.NewMemFS(5)
	writeJournal(t, fs, "gw.journal", txs...)
	relay := newRelay(t, mgrKey, &scriptedNet{})
	t.Cleanup(func() { _ = relay.ClosePersistence() })
	var replayed int
	allocs, bytes := beyondResidentCopy(txs, func() {
		if replayed, err = relay.EnablePersistenceFS(fs, "gw.journal"); err != nil {
			t.Fatal(err)
		}
	})
	if replayed != records {
		t.Fatalf("replayed %d records, want %d", replayed, records)
	}
	t.Logf("%.1f allocations, %.0f bytes allocated per replayed transaction beyond its resident copy", allocs, bytes)
	if allocs > replayAllocsBudget || bytes > replayBytesBudget {
		t.Errorf("a replayed transaction costs %.1f allocations and %.0f bytes beyond its resident copy, budget %.1f and %d",
			allocs, bytes, replayAllocsBudget, replayBytesBudget)
	}
}

// TestSubmitAllocationBudget: FullNode.Submit of pre-mined, pre-encoded
// transactions on a standalone gateway — the whole submission edge, gate
// and commit, with no fan-out and no journal.
func TestSubmitAllocationBudget(t *testing.T) {
	allocs, bytes := submitCost(t, false)
	t.Logf("%.1f allocations, %.0f bytes allocated per submitted transaction", allocs, bytes)
	if allocs > submitAllocsBudget || bytes > submitBytesBudget {
		t.Errorf("a submission costs %.1f allocations and %.0f bytes, budget %.1f and %d",
			allocs, bytes, submitAllocsBudget, submitBytesBudget)
	}
}

// TestJournaledSubmitAllocationBudget: the same Submits on a gateway that
// journals them over a disk that allocates nothing, so what is counted
// beyond TestSubmitAllocationBudget's figure is the journal path: queueing
// the record, the committer's flush, and the wait for it.
func TestJournaledSubmitAllocationBudget(t *testing.T) {
	allocs, bytes := submitCost(t, true)
	t.Logf("%.1f allocations, %.0f bytes allocated per submitted transaction on a journaling gateway", allocs, bytes)
	if allocs > journaledSubmitAllocsBudget || bytes > journaledSubmitBytesBudget {
		t.Errorf("a journaled submission costs %.1f allocations and %.0f bytes, budget %.1f and %d",
			allocs, bytes, journaledSubmitAllocsBudget, journaledSubmitBytesBudget)
	}
}

// submitCost submits pre-mined transactions to a standalone gateway,
// journaling over quietFS or not, and measures the later ones.
func submitCost(t *testing.T, journaled bool) (allocs, bytes float64) {
	const warm, measured = 256, 1024
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gw, err := node.NewFull(node.FullConfig{
		Key:        mgrKey,
		Role:       identity.RoleManager,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Policy:     core.StaticPolicy{Difficulty: testParams().MinDifficulty}, // what chainedTxs mines to
	})
	if err != nil {
		t.Fatal(err)
	}
	if journaled {
		if _, err := gw.EnablePersistenceFS(quietFS{}, "gw.journal"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gw.ClosePersistence() })
	}
	txs := chainedTxs(t, mgrKey, warm+measured)
	submit := func(txs []*txn.Transaction) {
		for _, tx := range txs {
			if _, err := gw.Submit(context.Background(), tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(txs[:warm])
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	primeVerifyKernel(txs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(txs[warm:])
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / measured, float64(after.TotalAlloc-before.TotalAlloc) / measured
}

// quietFS is a file system whose files keep nothing: a write or a sync
// only moves the file's size, and allocates nothing, so a guard over a
// journaling node counts the node's journal path and not a disk model.
type quietFS struct{}

func (quietFS) OpenFile(string, int, os.FileMode) (chaos.File, error) { return &quietFile{}, nil }
func (quietFS) Rename(string, string) error                           { return nil }
func (quietFS) Remove(string) error                                   { return nil }

type quietFile struct{ pos, size int64 }

func (f *quietFile) Read([]byte) (int, error) { return 0, io.EOF }
func (f *quietFile) Write(p []byte) (int, error) {
	f.pos += int64(len(p))
	f.size = max(f.size, f.pos)
	return len(p), nil
}
func (f *quietFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += f.size
	}
	f.pos = offset
	return f.pos, nil
}
func (f *quietFile) Sync() error               { return nil }
func (f *quietFile) Truncate(size int64) error { f.size = size; return nil }
func (f *quietFile) Close() error              { return nil }

// TestCatchUpAllocationBudget: a fresh relay SyncAlls a gateway holding
// 4 096 journaled transactions over loopback TCP — both ends of the
// exchange, the pager, the responder and the transport, and the admission
// of every page — and what that allocates per synced transaction beyond
// its resident copy. On go1.24 linux/amd64 it measured 1 512 B in 3.2
// allocations while every page was read into a fresh frame, the responder
// built a map of the requester's Have window and the requester a fresh
// one, and the ledger re-copied its ID map and indexes as it grew; it
// measures 701 B in 3.1 now, most of it the vertex and the credit record.
// The budgets are those figures plus about 10 %.
func TestCatchUpAllocationBudget(t *testing.T) {
	const (
		records      = 4096
		bytesBudget  = 770
		allocsBudget = 3.4
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	txs := chainedTxs(t, mgrKey, records)
	fs := chaos.NewMemFS(5)
	writeJournal(t, fs, "gw.journal", txs...)
	gateway, gwNet := newTCPNode(t, mgrKey)
	if _, err := gateway.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gateway.ClosePersistence() })
	relay, relayNet := newTCPNode(t, mgrKey)
	relayNet.AddPeer(gwNet.Self())

	allocs, bytes := beyondResidentCopy(txs, func() { relay.SyncAll(context.Background()) })
	if got := relay.Tangle().Size(); got != records+2 {
		t.Fatalf("relay holds %d transactions after the catch-up, want %d", got, records+2)
	}
	t.Logf("%.1f allocations, %.0f bytes allocated per synced transaction beyond its resident copy", allocs, bytes)
	if allocs > allocsBudget || bytes > bytesBudget {
		t.Errorf("a synced transaction costs %.1f allocations and %.0f bytes beyond its resident copy, budget %.1f and %d",
			allocs, bytes, allocsBudget, bytesBudget)
	}
}
