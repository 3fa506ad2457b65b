package node_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// pagedPeer is a gossip fabric with one peer that serves sync pages from
// a script, with the requester's context in hand — a real transport
// gives a request up when its context ends, and so does this one — and
// records the cursor of every request the moment it arrives.
type pagedPeer struct {
	serve func(ctx context.Context, req gossip.Message) (gossip.Message, error)

	mu      sync.Mutex
	cursors []uint64
}

func (p *pagedPeer) Self() string                                    { return "relay" }
func (p *pagedPeer) Peers() []string                                 { return []string{"gateway:5600"} }
func (p *pagedPeer) Broadcast(context.Context, gossip.Message) error { return nil }
func (p *pagedPeer) SetHandler(gossip.Handler)                       {}
func (p *pagedPeer) Close() error                                    { return nil }

func (p *pagedPeer) Request(ctx context.Context, _ string, msg gossip.Message) (gossip.Message, error) {
	if msg.Type != gossip.MsgSyncRequest {
		return gossip.Message{}, fmt.Errorf("paged peer serves sync only, not %v", msg.Type)
	}
	p.mu.Lock()
	p.cursors = append(p.cursors, msg.Offset)
	p.mu.Unlock()
	reply, err := p.serve(ctx, msg)
	reply.Type = gossip.MsgSyncResponse
	return reply, err
}

func (p *pagedPeer) requested() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.cursors...)
}

// newPagingRelay builds a journaling gateway whose one peer is peer.
func newPagingRelay(t *testing.T, mgrKey *identity.KeyPair, peer *pagedPeer, fs chaos.FS) *node.FullNode {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	relay, err := node.NewFull(node.FullConfig{
		Key: key, Role: identity.RoleGateway, ManagerPub: mgrKey.Public(),
		Credit: testParams(), Network: peer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = relay.Close(); _ = relay.ClosePersistence() })
	if _, err := relay.EnablePersistenceFS(fs, "relay.journal"); err != nil {
		t.Fatal(err)
	}
	return relay
}

// syncPages cuts a ledger into the pages a peer would serve: page i is
// pages[i], its cursor the count of transactions before it.
type syncPages [][]*txn.Transaction

func (s syncPages) total() (n uint64) {
	for _, page := range s {
		n += uint64(len(page))
	}
	return n
}

// at serves the page that starts at cursor.
func (s syncPages) at(cursor uint64) gossip.Message {
	var start uint64
	for i, page := range s {
		if start == cursor {
			data := make([][]byte, len(page))
			for j, tx := range page {
				data[j] = tx.Encode()
			}
			return gossip.Message{TxData: data, Offset: start + uint64(len(page)), Total: s.total(), More: i < len(s)-1}
		}
		start += uint64(len(page))
	}
	return gossip.Message{Offset: s.total(), Total: s.total()}
}

// readings crafts n independent readings on the genesis pair.
func readings(mgrKey *identity.KeyPair, g [2]hashutil.Hash, tag string, n int) []*txn.Transaction {
	out := make([]*txn.Transaction, n)
	for i := range out {
		out[i] = craftTx(mgrKey, txn.KindData, []byte(fmt.Sprintf("%s %d", tag, i)), g[0], g[1], time.Now(), testParams().MinDifficulty)
	}
	return out
}

// TestSyncRequestsNextPageBeforeAdmittingThisOne: the pager keeps one
// page in flight. Page 0 is one record over the relay edge's unsynced
// bound, so its admission ends waiting for a journal flush, and the test
// holds that flush: with page 0 attached and its admission still held,
// the request for page 1 has already been seen — and none for page 2,
// one page is the whole look-ahead — and nothing of page 1 is in the
// ledger, whose order in the end is page order.
func TestSyncRequestsNextPageBeforeAdmittingThisOne(t *testing.T) {
	inBubble(t, testSyncRequestsNextPageBeforeAdmittingThisOne)
}
func testSyncRequestsNextPageBeforeAdmittingThisOne(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := newHeldFS(71)
	peer := &pagedPeer{}
	relay := newPagingRelay(t, mgrKey, peer, fs)
	g := genesisIDs(t, relay)
	pages := syncPages{
		readings(mgrKey, g, "page 0", node.MaxUnsyncedRelay+1),
		readings(mgrKey, g, "page 1", 3),
		readings(mgrKey, g, "page 2", 3),
	}
	peer.serve = func(_ context.Context, req gossip.Message) (gossip.Message, error) {
		return pages.at(req.Offset), nil
	}
	first, second := uint64(len(pages[0])), uint64(len(pages[0])+len(pages[1]))

	fs.hold()
	synced := make(chan struct{})
	go func() {
		defer close(synced)
		relay.SyncAll(context.Background())
	}()
	waitFor(t, "page 0 is attached", func() bool { return relay.Tangle().Contains(pages[0][len(pages[0])-1].ID()) })
	fs.waitBlocked(t) // and its admission is waiting for this flush
	if received(synced, 0) {
		t.Fatal("the sync returned with page 0's flush held")
	}
	if got, want := peer.requested(), []uint64{0, first}; !reflect.DeepEqual(got, want) {
		t.Fatalf("with page 0's admission held the peer has seen cursors %v, want %v: page 1 requested, page 2 not", got, want)
	}
	for _, tx := range pages[1] {
		if relay.Tangle().Contains(tx.ID()) {
			t.Fatal("a transaction of page 1 is in the ledger before page 0's admission has completed")
		}
	}
	fs.open()
	awaitReturn(t, "the sync, its flushes released", synced)

	if got, want := peer.requested(), []uint64{0, first, second}; !reflect.DeepEqual(got, want) {
		t.Errorf("the peer saw cursors %v, want %v", got, want)
	}
	if got := relay.Pipeline().SyncPages.Value(); got != 3 {
		t.Errorf("page counter = %d, want 3", got)
	}
	position := make(map[hashutil.Hash]int)
	for i, id := range relay.Tangle().OrderedIDs(0, 1<<20) {
		position[id] = i
	}
	last := 0
	for p, page := range pages {
		lowest := 1 << 30
		for _, tx := range page {
			at, ok := position[tx.ID()]
			if !ok {
				t.Fatalf("a transaction of page %d is not in the ledger", p)
			}
			lowest = min(lowest, at)
			last = max(last, at)
		}
		if p > 0 && lowest < position[pages[p-1][len(pages[p-1])-1].ID()] {
			t.Errorf("page %d was admitted before page %d had been", p, p-1)
		}
	}
	if want := 2 + int(pages.total()) - 1; last != want {
		t.Errorf("the last synced transaction sits at %d, want %d", last, want)
	}
}

// TestSyncRewindMidSyncStartsOver: the reply to the page requested ahead
// says the peer's ledger is now shorter than the cursor it was asked at (a
// restart, a compaction). The pager starts over from zero with nothing
// else in flight, admits nothing of the ledger that is gone twice, and
// leaves the persisted cursor on the new ledger's end.
func TestSyncRewindMidSyncStartsOver(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	peer := &pagedPeer{}
	relay := newPagingRelay(t, mgrKey, peer, chaos.NewMemFS(72))
	g := genesisIDs(t, relay)
	before := syncPages{readings(mgrKey, g, "before", 2), readings(mgrKey, g, "lost in the restart", 2)}
	after := syncPages{readings(mgrKey, g, "after", 1)}
	restarted := false
	peer.serve = func(_ context.Context, req gossip.Message) (gossip.Message, error) {
		if !restarted && req.Offset == 0 {
			return before.at(0), nil
		}
		restarted = true // from the first request past page 0 on
		return after.at(req.Offset), nil
	}
	relay.SyncAll(context.Background())
	if got, want := peer.requested(), []uint64{0, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the peer saw cursors %v, want %v: page 0, the page ahead answered by a shorter ledger, the rewind", got, want)
	}
	if got := relay.Pipeline().SyncPages.Value(); got != 2 {
		t.Errorf("page counter = %d, want 2: a rewind is not a page", got)
	}
	for _, tx := range append(append([]*txn.Transaction(nil), before[0]...), after[0]...) {
		if !relay.Tangle().Contains(tx.ID()) {
			t.Error("a served transaction is not in the ledger")
		}
	}
	for _, tx := range before[1] {
		if relay.Tangle().Contains(tx.ID()) {
			t.Error("a transaction the peer never served is in the ledger")
		}
	}
	relay.SyncAll(context.Background())
	if got, want := peer.requested()[3:], []uint64{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("the next sync asked at %v, want %v: the cursor persisted after the rewind", got, want)
	}
}

// TestSyncCancelledWithPageInFlightLeavesNothingBehind: the context ends
// while page 0's admission is held and the request for page 1 is out.
// The sync returns once the flush lets it, having waited for the request
// it abandoned, and the goroutine count is what it was.
func TestSyncCancelledWithPageInFlightLeavesNothingBehind(t *testing.T) {
	inBubble(t, testSyncCancelledWithPageInFlightLeavesNothingBehind)
}
func testSyncCancelledWithPageInFlightLeavesNothingBehind(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := newHeldFS(73)
	peer := &pagedPeer{}
	relay := newPagingRelay(t, mgrKey, peer, fs)
	g := genesisIDs(t, relay)
	pages := syncPages{readings(mgrKey, g, "page 0", node.MaxUnsyncedRelay+1), readings(mgrKey, g, "never served", 2)}
	abandoned := make(chan struct{})
	peer.serve = func(ctx context.Context, req gossip.Message) (gossip.Message, error) {
		if req.Offset == 0 {
			return pages.at(0), nil
		}
		<-ctx.Done() // the link is slow; only the context ends the wait
		close(abandoned)
		return gossip.Message{}, ctx.Err()
	}
	baseline := runtime.NumGoroutine()

	fs.hold()
	ctx, cancel := context.WithCancel(context.Background())
	synced := make(chan struct{})
	go func() {
		defer close(synced)
		relay.SyncAll(ctx)
	}()
	fs.waitBlocked(t)
	waitFor(t, "the request for page 1 is out", func() bool { return len(peer.requested()) == 2 })
	cancel()
	awaitReturn(t, "the abandoned request", abandoned)
	fs.open()
	awaitReturn(t, "the cancelled sync", synced)
	for _, tx := range pages[1] {
		if relay.Tangle().Contains(tx.ID()) {
			t.Error("a page requested after the context ended was admitted")
		}
	}
	waitFor(t, "the goroutines the sync started are gone", func() bool { return runtime.NumGoroutine() <= baseline })
}
