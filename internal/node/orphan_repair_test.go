package node_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// scriptedNet is a relay's gossip.Network under the test's control: the
// test plays the peers. It hands inbound messages to the node's handler
// under any sender address it likes and answers the node's own requests
// from a script, recording whom the node asked for what.
type scriptedNet struct {
	peers []string
	// serve answers one outbound request; nil refuses everything.
	serve func(peer string, msg gossip.Message) (gossip.Message, error)

	mu      sync.Mutex
	handler gossip.Handler
	asked   []string // "peer type" per outbound request, in order
}

func (s *scriptedNet) Self() string                                          { return "relay" }
func (s *scriptedNet) Peers() []string                                       { return s.peers }
func (s *scriptedNet) Broadcast(ctx context.Context, _ gossip.Message) error { return nil }
func (s *scriptedNet) Close() error                                          { return nil }

func (s *scriptedNet) SetHandler(h gossip.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

func (s *scriptedNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	s.mu.Lock()
	s.asked = append(s.asked, fmt.Sprintf("%s %v", peer, msg.Type))
	serve := s.serve
	s.mu.Unlock()
	if serve == nil {
		return gossip.Message{}, errors.New("scripted network: no such peer")
	}
	return serve(peer, msg)
}

func (s *scriptedNet) requests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.asked...)
}

// deliver hands one transaction batch to the node as if from had sent it
// and waits for the handler's acknowledgement.
func (s *scriptedNet) deliver(t *testing.T, from string, txs ...*txn.Transaction) {
	t.Helper()
	<-deliverAsync(t, s, from, txs...)
}

// deliverAsync is deliver on a goroutine of its own; the returned channel
// is closed once the handler has acknowledged the batch.
func deliverAsync(t *testing.T, net *scriptedNet, from string, txs ...*txn.Transaction) <-chan struct{} {
	t.Helper()
	data := make([][]byte, len(txs))
	for i, tx := range txs {
		data[i] = tx.Encode()
	}
	net.mu.Lock()
	h := net.handler
	net.mu.Unlock()
	acked := make(chan struct{})
	go func() {
		defer close(acked)
		if _, err := h.HandleGossip(from, gossip.Message{Type: gossip.MsgTransaction, TxData: data}); err != nil {
			t.Errorf("handler: %v", err)
		}
	}()
	return acked
}

// TestOrphanRepairPullsFromListedPeer is the regression test for the
// dead-port dial: over TCP a batch's sender is known to the handler by
// the ephemeral address of its outbound socket, which nothing listens
// on. An orphan relayed from such an address must not make the handler
// wait for anything, must never be asked about at that address, and
// must be repaired from a peer the node lists.
func TestOrphanRepairPullsFromListedPeer(t *testing.T) {
	inBubble(t, testOrphanRepairPullsFromListedPeer)
}
func testOrphanRepairPullsFromListedPeer(t *testing.T) {
	const unlisted = "127.0.0.1:49152" // an inbound connection's remote address
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{peers: []string{"gateway:5600"}}
	relay := newRelay(t, mgrKey, net)

	g := genesisIDs(t, relay)
	floor := testParams().MinDifficulty
	parent := craftTx(mgrKey, txn.KindData, []byte("parent"), g[0], g[1], time.Now(), floor)
	child := craftTx(mgrKey, txn.KindData, []byte("child"), parent.ID(), parent.ID(), time.Now(), floor)

	// The listed peer holds the parent and serves it on request.
	net.mu.Lock()
	net.serve = func(peer string, msg gossip.Message) (gossip.Message, error) {
		if msg.Type != gossip.MsgSyncRequest {
			return gossip.Message{}, fmt.Errorf("unexpected %v", msg.Type)
		}
		return gossip.Message{Type: gossip.MsgSyncResponse, TxData: [][]byte{parent.Encode()}, Offset: 1, Total: 1}, nil
	}
	net.mu.Unlock()

	start := time.Now()
	net.deliver(t, unlisted, child)
	if took := time.Since(start); took > node.OrphanRepairGrace/2 {
		t.Errorf("the handler took %v with an orphan in the batch; it must not wait for the repair", took)
	}
	if asked := net.requests(); len(asked) != 0 {
		t.Fatalf("the handler made requests while handling the batch: %v", asked)
	}
	if relay.Tangle().Contains(child.ID()) || relay.QuarantineLen() != 1 {
		t.Fatalf("orphan not parked: attached=%v parked=%d", relay.Tangle().Contains(child.ID()), relay.QuarantineLen())
	}

	waitFor(t, "the background pull attaches parent and child", func() bool {
		return relay.Tangle().Contains(parent.ID()) && relay.Tangle().Contains(child.ID())
	})
	for _, req := range net.requests() {
		if req != "gateway:5600 sync-request" {
			t.Errorf("repair asked %q; want only sync requests to the listed peer", req)
		}
	}
	if got := relay.Pipeline().OrphanSyncs.Value(); got != 1 {
		t.Errorf("OrphanSyncs = %d, want 1", got)
	}
	if got := relay.Pipeline().OrphanSyncAttached.Value(); got != 1 {
		t.Errorf("OrphanSyncAttached = %d, want 1: the parent the repair pulled (the child attaches from the quarantine)", got)
	}
	if relay.QuarantineLen() != 0 {
		t.Errorf("%d transactions still parked after the repair", relay.QuarantineLen())
	}
}

// TestOrphanRepairIsSingleFlight: orphans arriving while a repair is
// pending share it — one pull per grace period, however many batches
// parked something.
func TestOrphanRepairIsSingleFlight(t *testing.T) { inBubble(t, testOrphanRepairIsSingleFlight) }
func testOrphanRepairIsSingleFlight(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{peers: []string{"gateway:5600"}}
	relay := newRelay(t, mgrKey, net)

	g := genesisIDs(t, relay)
	floor := testParams().MinDifficulty
	parent := craftTx(mgrKey, txn.KindData, []byte("parent"), g[0], g[1], time.Now(), floor)
	net.mu.Lock()
	net.serve = func(peer string, msg gossip.Message) (gossip.Message, error) {
		return gossip.Message{Type: gossip.MsgSyncResponse, TxData: [][]byte{parent.Encode()}, Offset: 1, Total: 1}, nil
	}
	net.mu.Unlock()

	const children = 5
	var ids [children]*txn.Transaction
	for i := range ids {
		ids[i] = craftTx(mgrKey, txn.KindData, []byte{byte(i)}, parent.ID(), parent.ID(), time.Now(), floor)
		net.deliver(t, "gateway:5600", ids[i])
	}
	waitFor(t, "every child attaches", func() bool {
		for _, c := range ids {
			if !relay.Tangle().Contains(c.ID()) {
				return false
			}
		}
		return true
	})
	if got := relay.Pipeline().OrphanSyncs.Value(); got != 1 {
		t.Errorf("OrphanSyncs = %d for %d orphan batches inside one grace period, want 1", got, children)
	}
}

// TestDroppedBatchRepairedInBackground: the batch carrying a
// transaction is lost on the way (here: the link is down while it is
// sent, which the sender counts as a send failure and never retries).
// Its descendants arrive, park, and attach once the relay's background
// pull has fetched what was lost — with nobody calling SyncAll.
func TestDroppedBatchRepairedInBackground(t *testing.T) {
	inBubble(t, testDroppedBatchRepairedInBackground)
}
func testDroppedBatchRepairedInBackground(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	gateway, relay := dep.mgr.Node(), dep.gateways[0]

	submit := func(tag string) *txn.Transaction {
		tr := mineOwnTx(t, gateway, tag)
		if _, err := gateway.Submit(ctx, tr); err != nil {
			t.Fatal(err)
		}
		if err := gateway.FlushBroadcast(ctx); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	dep.bus.Partition("manager", "gw-0")
	lost := submit("lost")
	dep.bus.Heal("manager", "gw-0")
	if gateway.Pipeline().SendFailures.Value() != 1 || relay.Tangle().Contains(lost.ID()) {
		t.Fatal("fixture: the first batch was supposed to be lost")
	}

	descendants := []*txn.Transaction{submit("child"), submit("grandchild")}
	for _, d := range descendants {
		if relay.Tangle().Contains(d.ID()) {
			t.Fatal("fixture: a descendant attached without its ancestor")
		}
	}
	if relay.QuarantineLen() != len(descendants) {
		t.Fatalf("%d transactions parked, want %d", relay.QuarantineLen(), len(descendants))
	}

	waitFor(t, "the lost transaction and its descendants attach", func() bool {
		return relay.Tangle().Size() == gateway.Tangle().Size()
	})
	if got := relay.Pipeline().OrphanSyncs.Value(); got == 0 {
		t.Error("the gap closed without an orphan sync being counted")
	}
	if relay.QuarantineLen() != 0 {
		t.Errorf("%d transactions still parked after the repair", relay.QuarantineLen())
	}
}

// TestOrphanAuthorizationListBindsAtOnce: the manager's publish waits
// for the fan-out only, so a revocation must bind a gateway's submission
// edge from the moment the list is seen — also when the list's parents
// have not arrived yet and the list itself has to park.
func TestOrphanAuthorizationListBindsAtOnce(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	in := newInjectedNode(t, mgrKey, nil, nil)
	g := genesisIDs(t, in.n)
	floor := testParams().MinDifficulty
	dev := identity.EncodePublic(devKey.Public())

	in.send(t, craftAuthTx(t, mgrKey, authz.List{Seq: 1, Devices: []string{dev}}, g[0], g[1], time.Now()))
	if !in.n.Registry().IsAuthorizedDevice(devKey.Address()) {
		t.Fatal("fixture: device not authorized by list 1")
	}

	missing := craftTx(mgrKey, txn.KindData, []byte("elsewhere"), g[0], g[1], time.Now(), floor)
	revocation := craftAuthTx(t, mgrKey, authz.List{Seq: 2}, missing.ID(), missing.ID(), time.Now())
	in.send(t, revocation)
	if in.n.Tangle().Contains(revocation.ID()) {
		t.Fatal("fixture: the revocation attached without its parent")
	}
	if in.n.Registry().IsAuthorizedDevice(devKey.Address()) {
		t.Error("a parked revocation list left the device authorized at the submission edge")
	}
	if got := in.n.Registry().Seq(); got != 2 {
		t.Errorf("registry at list sequence %d, want 2", got)
	}

	// When the parent lands the list attaches like any other orphan.
	in.send(t, missing)
	if !in.n.Tangle().Contains(revocation.ID()) || in.n.QuarantineLen() != 0 {
		t.Errorf("revocation attached=%v, %d parked, after its parent arrived",
			in.n.Tangle().Contains(revocation.ID()), in.n.QuarantineLen())
	}
}

// TestEvidenceGapRepairedByOrphanLane: a relay that holds authorization
// lists 1 and 3 is handed a reading whose evidence is list 1 and whose
// sender is a member of list 2 only. The verdict is Unresolved, a gap like
// a missing parent: the reading parks, and after the grace the repair lane
// pulls the missing list from a listed peer — not only from the peer that
// relayed the reading, which here has nothing to serve.
func TestEvidenceGapRepairedByOrphanLane(t *testing.T) {
	inBubble(t, testEvidenceGapRepairedByOrphanLane)
}
func testEvidenceGapRepairedByOrphanLane(t *testing.T) {
	dep := newMultiNode(t, 1, nil)
	manager, relay, mgrKey := dep.mgr.Node(), dep.gateways[0], dep.mgrKey
	devKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := dep.bus.Join("inj") // relays to both and, without a handler, serves nothing
	if err != nil {
		t.Fatal(err)
	}
	send := func(to string, txs ...*txn.Transaction) {
		t.Helper()
		data := make([][]byte, len(txs))
		for i, tx := range txs {
			data[i] = tx.Encode()
		}
		if _, err := inj.Request(context.Background(), to, gossip.Message{Type: gossip.MsgTransaction, TxData: data}); err != nil {
			t.Fatalf("inject: %v", err)
		}
	}

	g := genesisIDs(t, relay)
	now := time.Now()
	list1 := craftAuthTx(t, mgrKey, authz.List{Seq: 1}, g[0], g[1], now)
	list2 := craftAuthTx(t, mgrKey, authz.List{Seq: 2, Devices: []string{identity.EncodePublic(devKey.Public())}},
		list1.ID(), list1.ID(), now)
	reading := craftTx(devKey, txn.KindData, []byte("reading"), list1.ID(), list1.ID(), now, testParams().MinDifficulty)
	list3 := craftAuthTx(t, mgrKey, authz.List{Seq: 3}, list1.ID(), list1.ID(), now)
	send("manager", list1, list2, reading, list3)
	if !manager.Tangle().Contains(reading.ID()) || manager.Registry().Seq() != 3 {
		t.Fatal("fixture: the manager does not hold the lists and the reading")
	}

	send("gw-0", list1, list3)
	send("gw-0", reading)
	if relay.Tangle().Contains(reading.ID()) || relay.QuarantineLen() != 1 {
		t.Fatalf("fixture: reading attached=%v with %d parked; want it parked on the list-2 gap",
			relay.Tangle().Contains(reading.ID()), relay.QuarantineLen())
	}

	waitFor(t, "the repair lane attaches the parked reading", func() bool { return relay.Tangle().Contains(reading.ID()) })
	c := relay.CountersView()
	if got := relay.Registry().Seq(); got != 3 {
		t.Errorf("registry at list %d, want 3", got)
	}
	if got := c.StaleAuthRejects.Value(); got != 0 {
		t.Errorf("StaleAuthRejects = %d, want 0", got)
	}
	if got := relay.QuarantineLen(); got != 0 {
		t.Errorf("QuarantineLen = %d, want 0", got)
	}
	if got := relay.Pipeline().OrphanSyncs.Value(); got < 1 {
		t.Errorf("OrphanSyncs = %d, want ≥ 1", got)
	}
}

// TestCloseRacesOrphanRepairStart: a handler parking an orphan starts the
// repair lane (joining its wait group) while Close cancels the lane and
// waits for it. Close used to cancel outside the lane's lock, so the
// handler could pass the cancellation check and join after the Wait had
// begun — a WaitGroup misuse the race detector caught once in ≈900 runs of
// the machine-carnage scenario. A stress test: it cannot fail on a correct
// node, and under -race fails on the old one about one run in three.
func TestCloseRacesOrphanRepairStart(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var unknown hashutil.Hash
	unknown[0] = 0xEE
	orphan := craftTx(mgrKey, txn.KindData, []byte("orphan"), unknown, unknown, time.Now(), testParams().MinDifficulty)
	for i := 0; i < 300; i++ {
		net := &scriptedNet{peers: []string{"gateway:5600"}}
		relay := newRelay(t, mgrKey, net)
		acked := deliverAsync(t, net, "gateway:5600", orphan)
		_ = relay.Close()
		<-acked
	}
}
