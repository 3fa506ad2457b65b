package node_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// heldFS is a MemFS whose Syncs the test can hold: from hold until open,
// each Sync blocks until the test releases it, one release a Sync. No
// test here sleeps to order a flush against anything; the flush happens
// when the test says so.
type heldFS struct {
	*chaos.MemFS
	mu      sync.Mutex
	gate    chan struct{} // nil: Syncs pass
	blocked atomic.Int32  // Syncs held right now
}

func newHeldFS(seed int64) *heldFS { return &heldFS{MemFS: chaos.NewMemFS(seed)} }

func (h *heldFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := h.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &heldFile{File: f, fs: h}, nil
}

func (h *heldFS) hold() {
	h.mu.Lock()
	h.gate = make(chan struct{})
	h.mu.Unlock()
}

// release lets exactly one held Sync proceed.
func (h *heldFS) release() {
	h.mu.Lock()
	gate := h.gate
	h.mu.Unlock()
	gate <- struct{}{}
}

// open ends the hold: held and later Syncs all proceed.
func (h *heldFS) open() {
	h.mu.Lock()
	close(h.gate)
	h.gate = nil
	h.mu.Unlock()
}

// waitBlocked waits until a Sync is held: the committer has written its
// batch and is at the flush.
func (h *heldFS) waitBlocked(t *testing.T) {
	t.Helper()
	waitFor(t, "a journal flush is held at its Sync", func() bool { return h.blocked.Load() == 1 })
}

type heldFile struct {
	chaos.File
	fs *heldFS
}

func (f *heldFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.blocked.Add(1)
		<-gate
		f.fs.blocked.Add(-1)
	}
	return f.File.Sync()
}

// journaledIDs reads the journal as the next boot would.
func journaledIDs(t *testing.T, fs chaos.FS, path string) map[hashutil.Hash]int {
	t.Helper()
	ids := make(map[hashutil.Hash]int)
	log, err := store.OpenFS(fs, path, func(tx *txn.Transaction) error {
		ids[tx.ID()]++
		return nil
	})
	if err != nil {
		t.Fatalf("read journal %s: %v", path, err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// newRelay builds a gateway whose peers the test plays. Transactions
// signed by mgrKey are authorized on it from genesis.
func newRelay(t *testing.T, mgrKey *identity.KeyPair, net *scriptedNet) *node.FullNode {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	relay, err := node.NewFull(node.FullConfig{
		Key:        key,
		Role:       identity.RoleGateway,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Network:    net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = relay.Close() })
	return relay
}

// newJournalingRelay is newRelay with its journal open on fs.
func newJournalingRelay(t *testing.T, mgrKey *identity.KeyPair, net *scriptedNet, fs chaos.FS, path string) *node.FullNode {
	t.Helper()
	relay := newRelay(t, mgrKey, net)
	if _, err := relay.EnablePersistenceFS(fs, path); err != nil {
		t.Fatal(err)
	}
	return relay
}

// encodingsOf returns the transactions' canonical encodings, the records
// a journal holds.
func encodingsOf(txs []*txn.Transaction) [][]byte {
	out := make([][]byte, len(txs))
	for i, tx := range txs {
		out[i] = tx.Encode()
	}
	return out
}

// writeJournal writes txs as the whole journal at path.
func writeJournal(t *testing.T, fs chaos.FS, path string, txs ...*txn.Transaction) {
	t.Helper()
	log, err := store.OpenFS(fs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(encodingsOf(txs)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// serveLedger makes the scripted peer answer sync requests with txs as
// one page.
func serveLedger(net *scriptedNet, txs ...*txn.Transaction) {
	data := make([][]byte, len(txs))
	for i, tx := range txs {
		data[i] = tx.Encode()
	}
	net.mu.Lock()
	net.serve = func(peer string, msg gossip.Message) (gossip.Message, error) {
		if msg.Type != gossip.MsgSyncRequest {
			return gossip.Message{}, fmt.Errorf("unexpected %v", msg.Type)
		}
		return gossip.Message{Type: gossip.MsgSyncResponse, TxData: data, Offset: uint64(len(data)), Total: uint64(len(data))}, nil
	}
	net.mu.Unlock()
}

// TestSubmitFansOutWhileItsFlushIsHeld: fan-out starts at attach, not at
// the journal barrier — a peer holds the transaction while Submit is
// still blocked on the fsync covering its record — and the durability
// promise is untouched: Submit does not return before that fsync does.
func TestSubmitFansOutWhileItsFlushIsHeld(t *testing.T) {
	inBubble(t, testSubmitFansOutWhileItsFlushIsHeld)
}
func testSubmitFansOutWhileItsFlushIsHeld(t *testing.T) {
	dep := newMultiNode(t, 1, nil)
	gateway, peer := dep.mgr.Node(), dep.gateways[0]
	fs := newHeldFS(21)
	if _, err := gateway.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatal(err)
	}
	tx := mineOwnTx(t, gateway, "reading")

	fs.hold()
	done := make(chan struct{})
	var submitErr error
	go func() {
		defer close(done)
		_, submitErr = gateway.Submit(context.Background(), tx)
	}()
	fs.waitBlocked(t)
	waitFor(t, "the peer holds the transaction while the gateway's flush is held", func() bool {
		return peer.Tangle().Contains(tx.ID())
	})
	if received(done, 0) {
		t.Fatal("Submit returned before the fsync covering its journal record")
	}
	fs.release()
	awaitReturn(t, "Submit, after its fsync was released", done)
	if submitErr != nil {
		t.Fatalf("submit: %v", submitErr)
	}
	fs.open()
	if err := gateway.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	fs.Reboot()
	if journaledIDs(t, fs.MemFS, "gw.journal")[tx.ID()] != 1 {
		t.Fatal("a transaction whose Submit returned is not in the journal after a power cut")
	}
}

// TestRelayAcksWhileItsFlushIsHeld: a relay's acknowledgement means
// "verified and attached", not "durable" — it attaches and acknowledges
// batch 2 while batch 1's fsync is still held, so the transport can hand
// it the pair's next batch — and nothing is lost to that: everything it
// acknowledged is in its journal after ClosePersistence.
func TestRelayAcksWhileItsFlushIsHeld(t *testing.T) { inBubble(t, testRelayAcksWhileItsFlushIsHeld) }
func testRelayAcksWhileItsFlushIsHeld(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := newHeldFS(22)
	net := &scriptedNet{peers: []string{"gateway:5600"}}
	relay := newJournalingRelay(t, mgrKey, net, fs, "relay.journal")
	g := genesisIDs(t, relay)
	floor := testParams().MinDifficulty
	first := craftTx(mgrKey, txn.KindData, []byte("batch 1"), g[0], g[1], time.Now(), floor)
	second := craftTx(mgrKey, txn.KindData, []byte("batch 2"), first.ID(), first.ID(), time.Now(), floor)

	fs.hold()
	for i, tx := range []*txn.Transaction{first, second} {
		acked := deliverAsync(t, net, "gateway:5600", tx)
		awaitReturn(t, fmt.Sprintf("the handler for batch %d, with batch 1's fsync held", i+1), acked)
		if !relay.Tangle().Contains(tx.ID()) {
			t.Fatalf("batch %d acknowledged but not attached", i+1)
		}
		fs.waitBlocked(t) // batch 1's flush, still
	}
	if !relay.JournalHealthy() || relay.CountersView().JournalErrors.Value() != 0 {
		t.Fatal("journal unhealthy with a flush merely held")
	}

	// ClosePersistence flushes what no handler waited for.
	closed := make(chan struct{})
	var closeErr error
	go func() { defer close(closed); closeErr = relay.ClosePersistence() }()
	fs.release() // batch 1
	fs.release() // batch 2
	awaitReturn(t, "ClosePersistence", closed)
	if closeErr != nil {
		t.Fatal(closeErr)
	}
	fs.open()
	fs.Reboot()
	ids := journaledIDs(t, fs.MemFS, "relay.journal")
	if ids[first.ID()] != 1 || ids[second.ID()] != 1 {
		t.Fatalf("journal after ClosePersistence + power cut holds batch 1 ×%d, batch 2 ×%d; want both once", ids[first.ID()], ids[second.ID()])
	}
	if got := relay.Pipeline().JournalLatency.Count(); got != 2 {
		t.Errorf("JournalLatency has %d samples, want one per relayed batch (2)", got)
	}
}

// TestRelayPowerCutWithFlushHeldIsRepairedBySync: the price of the early
// acknowledgement. A power cut while the relay's fsync is held loses
// what it acknowledged and had not flushed; the rebooted relay boots on
// whatever prefix survived, and a sync from the peer that still holds
// the transactions repairs it — ledger and journal both.
func TestRelayPowerCutWithFlushHeldIsRepairedBySync(t *testing.T) {
	inBubble(t, testRelayPowerCutWithFlushHeldIsRepairedBySync)
}
func testRelayPowerCutWithFlushHeldIsRepairedBySync(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := newHeldFS(23)
	net := &scriptedNet{peers: []string{"gateway:5600"}}
	relay := newJournalingRelay(t, mgrKey, net, fs, "relay.journal")
	g := genesisIDs(t, relay)
	floor := testParams().MinDifficulty
	first := craftTx(mgrKey, txn.KindData, []byte("batch 1"), g[0], g[1], time.Now(), floor)
	second := craftTx(mgrKey, txn.KindData, []byte("batch 2"), first.ID(), first.ID(), time.Now(), floor)

	fs.hold()
	net.deliver(t, "gateway:5600", first)
	net.deliver(t, "gateway:5600", second)
	fs.waitBlocked(t)
	fs.Reboot() // power cut: neither flush ever returned
	fs.open()   // the dead process's committer runs into its stale handle
	_ = relay.Close()
	_ = relay.ClosePersistence()

	net2 := &scriptedNet{peers: []string{"gateway:5600"}}
	serveLedger(net2, first, second)
	rebooted := newJournalingRelay(t, mgrKey, net2, fs, "relay.journal")
	rebooted.SyncAll(context.Background())
	if !rebooted.Tangle().Contains(first.ID()) || !rebooted.Tangle().Contains(second.ID()) {
		t.Fatal("sync did not repair what the power cut took")
	}
	if err := rebooted.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	ids := journaledIDs(t, fs.MemFS, "relay.journal")
	if ids[first.ID()] == 0 || ids[second.ID()] == 0 {
		t.Fatalf("journal after the repair holds batch 1 ×%d, batch 2 ×%d", ids[first.ID()], ids[second.ID()])
	}
}

// TestRelayUnsyncedBoundMakesHandlerWait: the early acknowledgement is
// bounded. With MaxUnsyncedRelay records already awaiting a flush, the
// next batch's handler waits for the flush covering its own record —
// back-pressure on the sender — exactly as every relay admission did
// before.
func TestRelayUnsyncedBoundMakesHandlerWait(t *testing.T) {
	inBubble(t, testRelayUnsyncedBoundMakesHandlerWait)
}
func testRelayUnsyncedBoundMakesHandlerWait(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := newHeldFS(24)
	net := &scriptedNet{peers: []string{"gateway:5600"}}
	relay := newJournalingRelay(t, mgrKey, net, fs, "relay.journal")
	g := genesisIDs(t, relay)
	floor := testParams().MinDifficulty
	page := make([]*txn.Transaction, node.MaxUnsyncedRelay)
	for i := range page {
		page[i] = craftTx(mgrKey, txn.KindData, []byte(fmt.Sprintf("page %d", i)), g[0], g[1], time.Now(), floor)
	}
	over := craftTx(mgrKey, txn.KindData, []byte("one over"), g[0], g[1], time.Now(), floor)

	fs.hold()
	acked := deliverAsync(t, net, "gateway:5600", page...)
	awaitReturn(t, "the handler of a batch that fills the bound exactly", acked)
	fs.waitBlocked(t)

	waited := deliverAsync(t, net, "gateway:5600", over)
	waitFor(t, "the batch over the bound is attached", func() bool { return relay.Tangle().Contains(over.ID()) })
	// Its record is queued after the attach is visible; the flushes below
	// must find it there.
	waitFor(t, "the record over the bound is queued", func() bool { return relay.UnflushedJournal() == len(page)+1 })
	// The page's flushes: whole commit cycles go by. A record is a request
	// of its own, so the page goes to the disk store.DefaultMaxBatch
	// records at a time behind the flush already held (one sync page, so
	// all of it in one), and the record over the bound rides in the last of
	// those — the one held when the loop ends.
	for flushed := 0; flushed < len(page); flushed += store.DefaultMaxBatch {
		fs.release()
		fs.waitBlocked(t)
	}
	if received(waited, 0) {
		t.Fatal("the handler of the batch over the bound returned before the fsync covering it")
	}
	fs.release() // its own
	awaitReturn(t, "the handler of the batch over the bound, after its fsync", waited)
	fs.open()
}

// tapFS calls tap before every Read of the journal — the seam through
// which a test acts at a chosen point of the replay.
type tapFS struct {
	chaos.FS
	path string
	tap  func()
}

func (f *tapFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || name != f.path {
		return file, err
	}
	return &tapFile{File: file, tap: f.tap}, nil
}

type tapFile struct {
	chaos.File
	tap func()
}

func (f *tapFile) Read(p []byte) (int, error) {
	f.tap()
	return f.File.Read(p)
}

// TestReplayRacedByLiveGossipHandler is the reproducer for "a
// crash-rebooted gateway refuses to boot: transaction already attached".
// A node's gossip handler is live from NewFull, before its journal is
// replayed (the Supervisor builds, then enables persistence). The journal
// here holds [a, b]. A copy of a is relayed before the replay starts; a
// batch with a copy of b and a transaction the journal has never seen
// arrives while the replay is reading. The node must boot; relay
// admission must hold until the replay is done; every transaction must
// be in the ledger once; and the ones relayed before the log opened must
// be in the journal afterwards — they used to be attached and never
// journaled. It stays on real time: the held batch waits on the replay's
// lock, which a synctest bubble does not count as durably blocked.
func TestReplayRacedByLiveGossipHandler(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mem := chaos.NewMemFS(25)
	net := &scriptedNet{}
	rebooted := newRelay(t, mgrKey, net)
	g := genesisIDs(t, rebooted)
	floor := testParams().MinDifficulty
	a := craftTx(mgrKey, txn.KindData, []byte("a"), g[0], g[1], time.Now(), floor)
	b := craftTx(mgrKey, txn.KindData, []byte("b"), a.ID(), a.ID(), time.Now(), floor)
	early := craftTx(mgrKey, txn.KindData, []byte("relayed before the replay"), g[0], g[1], time.Now(), floor)
	during := craftTx(mgrKey, txn.KindData, []byte("relayed during the replay"), g[0], g[1], time.Now(), floor)
	writeJournal(t, mem, "gw.journal", a, b)

	net.deliver(t, "gateway:5600", a, early) // the handler is live already

	var (
		once          sync.Once
		delivered     <-chan struct{}
		admittedEarly atomic.Bool // the batch got past the hold mid-replay
	)
	arrivals := rebooted.CountersView().GossipIn.Value()
	fs := &tapFS{FS: mem, path: "gw.journal", tap: func() {
		once.Do(func() {
			delivered = deliverAsync(t, net, "gateway:5600", b, during)
			waitFor(t, "the batch reaches the handler while the journal is being read", func() bool {
				return rebooted.CountersView().GossipIn.Value() > arrivals
			})
		})
		if rebooted.Tangle().Contains(during.ID()) {
			admittedEarly.Store(true)
		}
	}}
	if _, err := rebooted.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatalf("boot with the gossip handler live during replay: %v", err)
	}
	awaitReturn(t, "the batch held during the replay", delivered)
	if admittedEarly.Load() {
		t.Error("a relayed batch was admitted while the journal was still replaying")
	}
	for name, tx := range map[string]*txn.Transaction{"a": a, "b": b, "early": early, "during": during} {
		if !rebooted.Tangle().Contains(tx.ID()) {
			t.Errorf("%s is not in the ledger", name)
		}
	}
	if got, want := rebooted.Tangle().Size(), 2+4; got != want {
		t.Errorf("ledger holds %d transactions, want %d (2 genesis + a, b, early, during)", got, want)
	}
	if err := rebooted.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	ids := journaledIDs(t, mem, "gw.journal")
	for name, tx := range map[string]*txn.Transaction{"a": a, "b": b, "early": early, "during": during} {
		if ids[tx.ID()] != 1 {
			t.Errorf("journal holds %s ×%d, want once", name, ids[tx.ID()])
		}
	}
}

// TestSubmitWaitsOutTheReplay: a submission that lands while the journal
// is replaying must not be answered "admitted" for a reading no journal
// holds. The replay here is held inside its window — the journal read, the
// ledger exported, the log not yet the node's — on the Sync of the record
// for a transaction relayed before it began. A Submit made there used to
// attach, find no log to be queued for, have nothing to wait on and return
// nil; now it waits at the gate with relay admission, returns only once the
// journal is open and its own record flushed, and a reboot finds it. It
// stays on real time, so the check that Submit still waits is a timed one:
// Submit waits on the replay's lock, which a synctest bubble does not count
// as durably blocked.
func TestSubmitWaitsOutTheReplay(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := newHeldFS(26)
	net := &scriptedNet{}
	rebooted := newRelay(t, mgrKey, net)
	g := genesisIDs(t, rebooted)
	floor := testParams().MinDifficulty
	a := craftTx(mgrKey, txn.KindData, []byte("a"), g[0], g[1], time.Now(), floor)
	early := craftTx(mgrKey, txn.KindData, []byte("relayed before the replay"), g[0], g[1], time.Now(), floor)
	reading := craftTx(mgrKey, txn.KindData, []byte("submitted during the replay"), g[0], g[1], time.Now(),
		rebooted.DifficultyFor(mgrKey.Address()))
	writeJournal(t, fs.MemFS, "gw.journal", a)
	net.deliver(t, "gateway:5600", early) // attached, and owed to the journal once it opens

	// The hold begins with the first read of the journal, so the Sync it
	// catches is the one behind early's record: the replay is over, the
	// node has no log yet.
	var once sync.Once
	tapped := &tapFS{FS: fs, path: "gw.journal", tap: func() { once.Do(fs.hold) }}
	booted := make(chan struct{})
	var bootErr error
	go func() {
		defer close(booted)
		_, bootErr = rebooted.EnablePersistenceFS(tapped, "gw.journal")
	}()
	fs.waitBlocked(t)

	done := make(chan struct{})
	var submitErr error
	go func() {
		defer close(done)
		_, submitErr = rebooted.Submit(context.Background(), reading)
	}()
	// A Submit waiting at the gate shows nothing, so it is given time to
	// get it wrong: ungated, it has attached and returned in well under this.
	select {
	case <-done:
		t.Fatalf("Submit returned (%v) while the journal was replaying and the node had no log", submitErr)
	case <-time.After(100 * time.Millisecond):
	}
	if rebooted.Tangle().Contains(reading.ID()) {
		t.Fatal("a submission attached while the journal was replaying")
	}

	fs.open()
	awaitReturn(t, "EnablePersistenceFS, its Sync released", booted)
	if bootErr != nil {
		t.Fatalf("boot: %v", bootErr)
	}
	awaitReturn(t, "Submit, the journal open", done)
	if submitErr != nil {
		t.Fatalf("submit: %v", submitErr)
	}
	if err := rebooted.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	fs.Reboot()
	ids := journaledIDs(t, fs.MemFS, "gw.journal")
	for name, tx := range map[string]*txn.Transaction{"a": a, "early": early, "the submission": reading} {
		if ids[tx.ID()] != 1 {
			t.Errorf("journal after a power cut holds %s ×%d, want once", name, ids[tx.ID()])
		}
	}
}

// TestReplayRefusesRecordAheadOfItsParent: a record is queued for the
// journal by its attach, in ledger order, so this node never writes a
// generation-0 journal in which a record's parent is neither earlier in
// the journal, genesis, nor in the cold index — not even a torn one, which
// is a prefix. A journal that holds such a record is foreign, damaged, or
// was written by a build that queued records after the attach; it is
// refused with the record named, and left as it was found.
func TestReplayRefusesRecordAheadOfItsParent(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g := genesisIDs(t, newRelay(t, mgrKey, &scriptedNet{}))
	floor := testParams().MinDifficulty
	kept := craftTx(mgrKey, txn.KindData, []byte("kept"), g[0], g[1], time.Now(), floor)
	lost := craftTx(mgrKey, txn.KindData, []byte("never journaled"), g[0], g[1], time.Now(), floor)
	child := craftTx(mgrKey, txn.KindData, []byte("child"), lost.ID(), kept.ID(), time.Now(), floor)
	for name, journal := range map[string][]*txn.Transaction{
		"no record resolves a parent":                  {child},
		"a valid prefix, then an unknown parent":       {kept, child},
		"a child ahead of its parent (an older build)": {kept, child, lost},
	} {
		t.Run(name, func(t *testing.T) {
			mem := chaos.NewMemFS(26)
			writeJournal(t, mem, "gw.journal", journal...)
			before, err := mem.ReadFile("gw.journal")
			if err != nil {
				t.Fatal(err)
			}
			net := &scriptedNet{peers: []string{"gateway:5600"}}
			serveLedger(net, kept, lost, child)
			rebooted := newRelay(t, mgrKey, net)
			_, err = rebooted.EnablePersistenceFS(mem, "gw.journal")
			if !errors.Is(err, tangle.ErrUnknownParent) || !strings.Contains(err.Error(), "record "+child.ID().Short()) {
				t.Fatalf("boot = %v; want a refusal that names record %s", err, child.ID().Short())
			}
			if rebooted.QuarantineLen() != 0 || len(net.requests()) != 0 {
				t.Errorf("the refused boot parked %d transactions and asked peers %v; want neither", rebooted.QuarantineLen(), net.requests())
			}
			if after, _ := mem.ReadFile("gw.journal"); !bytes.Equal(before, after) {
				t.Error("the refused journal was modified")
			}
		})
	}
}

// cutFS is a MemFS that images the disk around every Sync of the journal:
// what a power cut just before the flush (the batch written, none of it
// promised: a torn tail) and just after it would leave behind.
type cutFS struct {
	*chaos.MemFS
	path string
	mu   sync.Mutex
	cuts []*chaos.MemFS
}

func (c *cutFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := c.MemFS.OpenFile(name, flag, perm)
	if err != nil || name != c.path {
		return f, err
	}
	return &cutFile{File: f, fs: c}, nil
}

func (c *cutFS) cut() {
	image := c.MemFS.Clone()
	image.Reboot()
	c.mu.Lock()
	c.cuts = append(c.cuts, image)
	c.mu.Unlock()
}

type cutFile struct {
	chaos.File
	fs *cutFS
}

func (f *cutFile) Sync() error {
	f.fs.cut()
	err := f.File.Sync()
	f.fs.cut()
	return err
}

// TestJournalIsAPrefixOfTheLedgerAtEveryFlush is the ordering invariant:
// whichever way transactions come in — concurrent submitters, relayed
// batches, relayed batches that arrive child-first and are retried out of
// the quarantine — every journal record follows both its parents, so the
// journal a power cut leaves at any flush boundary is a prefix of the
// ledger and boots a fresh node on its own: nothing stashed, nothing
// parked, nothing asked of a peer. (Records used to be queued after the
// attach, by whoever had attached them: a child-first batch journaled the
// retried child ahead of its parent every time, and concurrent submitters
// whenever one approved the other's transaction in the gap.)
func TestJournalIsAPrefixOfTheLedgerAtEveryFlush(t *testing.T) {
	const (
		submitters   = 4
		perSubmitter = 10
		chainLen     = 24
		batchLen     = 3
	)
	ctx := context.Background()
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := &cutFS{MemFS: chaos.NewMemFS(27), path: "gw.journal"}
	net := &scriptedNet{peers: []string{"gateway:5600"}}
	gw := newJournalingRelay(t, mgrKey, net, fs, "gw.journal")
	g := genesisIDs(t, gw)
	floor := testParams().MinDifficulty

	devices := make([]*identity.KeyPair, submitters)
	list := authz.List{Seq: 1}
	for i := range devices {
		if devices[i], err = identity.Generate(); err != nil {
			t.Fatal(err)
		}
		list.Devices = append(list.Devices, identity.EncodePublic(devices[i].Public()))
	}
	listTx := craftAuthTx(t, mgrKey, list, g[0], g[1], time.Now())
	net.deliver(t, "gateway:5600", listTx)
	chain := make([]*txn.Transaction, chainLen)
	for i, prev := 0, listTx.ID(); i < chainLen; i++ {
		chain[i] = craftTx(mgrKey, txn.KindData, []byte(fmt.Sprintf("relayed %d", i)), prev, prev, time.Now(), floor)
		prev = chain[i].ID()
	}

	var wg sync.WaitGroup
	for s, key := range devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				trunk, branch, err := gw.TipsForApproval()
				if err != nil {
					t.Error(err)
					return
				}
				tx := craftTx(key, txn.KindData, []byte(fmt.Sprintf("submitted %d/%d", s, i)), trunk, branch, time.Now(), gw.DifficultyFor(key.Address()))
				if _, err := gw.Submit(ctx, tx); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < chainLen; i += batchLen {
		batch := append([]*txn.Transaction(nil), chain[i:i+batchLen]...)
		if (i/batchLen)%2 == 1 {
			slices.Reverse(batch) // child first: it parks, and the kick that follows its parent retries it
		}
		net.deliver(t, "gateway:5600", batch...)
	}
	wg.Wait()
	if got, want := gw.Tangle().Size(), 2+1+chainLen+submitters*perSubmitter; got != want || gw.QuarantineLen() != 0 {
		t.Fatalf("ledger holds %d transactions with %d parked, want %d and 0", got, gw.QuarantineLen(), want)
	}
	if err := gw.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	fs.cut()

	longest := 0
	for i, image := range fs.cuts {
		var records []*txn.Transaction
		log, err := store.OpenFS(image, "gw.journal", func(tx *txn.Transaction) error {
			records = append(records, tx)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", i, err)
		}
		log.Close()
		journaled := map[hashutil.Hash]bool{g[0]: true, g[1]: true}
		for at, tx := range records {
			if !journaled[tx.Trunk] || !journaled[tx.Branch] {
				t.Fatalf("cut %d: record %d of %d (%s) is journaled ahead of a parent", i, at, len(records), tx.ID().Short())
			}
			journaled[tx.ID()] = true
		}
		longest = max(longest, len(records))

		peers := &scriptedNet{peers: []string{"gateway:5600"}}
		fresh := newRelay(t, mgrKey, peers)
		if _, err := fresh.EnablePersistenceFS(image, "gw.journal"); err != nil {
			t.Fatalf("cut %d: boot on the %d records the power cut left: %v", i, len(records), err)
		}
		if got, want := fresh.Tangle().Size(), 2+len(records); got != want || fresh.QuarantineLen() != 0 || len(peers.requests()) != 0 {
			t.Fatalf("cut %d: booted with %d of %d transactions attached, %d parked, requests %v; want all, none, none",
				i, got, want, fresh.QuarantineLen(), peers.requests())
		}
		if err := fresh.ClosePersistence(); err != nil {
			t.Fatal(err)
		}
	}
	if want := 1 + chainLen + submitters*perSubmitter; longest != want {
		t.Errorf("the journal after ClosePersistence holds %d records, want all %d", longest, want)
	}
	t.Logf("%d power cuts, journal of %d records", len(fs.cuts), longest)
}

// TestCompactJournalKeepsWhatWasAcknowledgedBeforeTheRewrite: a reading
// admitted, flushed and acknowledged while Compact's journal rewrite waits
// for the disk is in the ledger before the rewrite starts, so it must be in
// the rewritten journal. The rewrite used to export the ledger first and
// wait for the disk second: the reading landed in the old segment, the
// export did not hold it, and the rename dropped a record its device had
// been told was durable. It stays on real time: the compaction waits for
// the held flush on the journal's I/O mutex, which a synctest bubble does
// not count as durably blocked.
func TestCompactJournalKeepsWhatWasAcknowledgedBeforeTheRewrite(t *testing.T) {
	ctx := context.Background()
	dep := newTestDeployment(t)
	fs := newHeldFS(28)
	if _, err := dep.full.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatal(err)
	}
	defer dep.full.ClosePersistence()
	for round := 0; round < 4; round++ {
		// A flush is held at its Sync, so the disk is taken; the
		// compaction queues up behind it; a second reading is attached and
		// queued behind both. The flush is released, and whichever of the
		// two takes the disk next, the second reading — acknowledged
		// before the rewrite or flushed after it — must survive.
		fs.hold()
		first := mineOwnTx(t, dep.full, fmt.Sprintf("holds the disk %d", round))
		firstDone := make(chan struct{})
		go func() { defer close(firstDone); _, _ = dep.full.Submit(ctx, first) }()
		fs.waitBlocked(t)
		compacted := make(chan error, 1)
		go func() { _, _, err := dep.full.Compact(time.Hour); compacted <- err }()
		second := mineOwnTx(t, dep.full, fmt.Sprintf("acknowledged meanwhile %d", round))
		secondDone := make(chan struct{})
		go func() { defer close(secondDone); _, _ = dep.full.Submit(ctx, second) }()
		waitFor(t, "the second reading is attached", func() bool { return dep.full.Tangle().Contains(second.ID()) })
		fs.open()
		awaitReturn(t, "the first reading", firstDone)
		awaitReturn(t, "the second reading", secondDone)
		if err := awaitReturn(t, "Compact", compacted); err != nil {
			t.Fatal(err)
		}
		// A power cut now: both readings were acknowledged as durable.
		disk := fs.MemFS.Clone()
		disk.Reboot()
		ids := journaledIDs(t, disk, "gw.journal")
		if ids[first.ID()] == 0 || ids[second.ID()] == 0 {
			t.Fatalf("round %d: after a power cut the journal holds the first reading ×%d, the second ×%d; both were acknowledged as durable",
				round, ids[first.ID()], ids[second.ID()])
		}
	}
}
