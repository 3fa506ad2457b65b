package node_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

func TestFullConfigValidation(t *testing.T) {
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  node.FullConfig
	}{
		{"no key", node.FullConfig{Role: identity.RoleGateway, ManagerPub: key.Public()}},
		{"bad role", node.FullConfig{Key: key, Role: identity.RoleDevice, ManagerPub: key.Public()}},
		{"no manager", node.FullConfig{Key: key, Role: identity.RoleGateway}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := node.NewFull(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}

	// Manager role must hold the pinned key.
	other, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.NewFull(node.FullConfig{
		Key:        key,
		Role:       identity.RoleManager,
		ManagerPub: other.Public(),
	}); err == nil {
		t.Error("manager with mismatched pinned key accepted")
	}
}

func TestNewManagerRejectsGatewayNode(t *testing.T) {
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gwKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gw, err := node.NewFull(node.FullConfig{
		Key:        gwKey,
		Role:       identity.RoleGateway,
		ManagerPub: managerKey.Public(),
		Credit:     testParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.NewManager(gw); !errors.Is(err, node.ErrNotManagerNode) {
		t.Errorf("err = %v", err)
	}
}

// multiNodeDeployment builds manager + n gateways over an in-memory bus.
type multiNodeDeployment struct {
	bus      *gossip.Bus
	clk      clock.Clock
	mgrKey   *identity.KeyPair
	mgr      *node.Manager
	gateways []*node.FullNode
}

func newMultiNode(t *testing.T, gateways int, clk clock.Clock) *multiNodeDeployment {
	t.Helper()
	bus := gossip.NewBus()
	t.Cleanup(func() { _ = bus.Close() })
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mgrNet, err := bus.Join("manager")
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        mgrKey,
		Role:       identity.RoleManager,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Clock:      clk,
		Network:    mgrNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = full.Close() })
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	dep := &multiNodeDeployment{bus: bus, clk: clk, mgrKey: mgrKey, mgr: mgr}
	for i := 0; i < gateways; i++ {
		dep.addGateway(t)
	}
	return dep
}

// addGateway joins one more gateway to the bus, on the deployment's clock
// and with an empty ledger.
func (d *multiNodeDeployment) addGateway(t *testing.T) *node.FullNode {
	t.Helper()
	gwKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gwNet, err := d.bus.Join(fmt.Sprintf("gw-%d", len(d.gateways)))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := node.NewFull(node.FullConfig{
		Key:        gwKey,
		Role:       identity.RoleGateway,
		ManagerPub: d.mgrKey.Public(),
		Credit:     testParams(),
		Clock:      d.clk,
		Network:    gwNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	d.gateways = append(d.gateways, gw)
	return gw
}

// flush drains every node's asynchronous broadcast queue — the barrier
// that restores synchronous-bus visibility for assertions.
func (d *multiNodeDeployment) flush(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	if err := d.mgr.Node().FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}
	for _, gw := range d.gateways {
		if err := gw.FlushBroadcast(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGossipPropagatesTransactions(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 2, nil)
	device := newTestDevice(t, dep.gateways[0], nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := device.PostReading(ctx, []byte("propagate me"))
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast is asynchronous; the flush barrier waits out the fan-out.
	dep.flush(t)
	for i, gw := range dep.gateways {
		if !gw.Tangle().Contains(res.Info.ID) {
			t.Errorf("gateway %d missing the transaction", i)
		}
	}
	if !dep.mgr.Node().Tangle().Contains(res.Info.ID) {
		t.Error("manager missing the transaction")
	}
}

func TestGossipPropagatesCreditRecords(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 2, nil)
	device := newTestDevice(t, dep.gateways[0], nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := device.PostReading(ctx, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	dep.flush(t)
	// Every full node independently derives the same difficulty for the
	// device from its replicated records — "the credit value cannot be
	// forged or tampered".
	want := dep.gateways[0].DifficultyFor(device.Address())
	for i, gw := range dep.gateways[1:] {
		if got := gw.DifficultyFor(device.Address()); got != want {
			t.Errorf("gateway %d difficulty %d != %d", i+1, got, want)
		}
	}
	if got := dep.mgr.Node().DifficultyFor(device.Address()); got != want {
		t.Errorf("manager difficulty %d != %d", got, want)
	}
}

func TestLateJoiningGatewaySyncs(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	device := newTestDevice(t, dep.gateways[0], nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := device.PostReading(ctx, []byte("history")); err != nil {
			t.Fatal(err)
		}
	}

	late := dep.addGateway(t)
	if late.Tangle().Size() != 2 {
		t.Fatalf("fresh gateway size = %d", late.Tangle().Size())
	}
	late.SyncAll(ctx)
	want := dep.gateways[0].Tangle().Size()
	if got := late.Tangle().Size(); got != want {
		t.Errorf("synced size = %d, want %d", got, want)
	}
	// Authorization state came along: the late gateway serves the
	// device immediately.
	lateDevice, err := node.NewLight(node.LightConfig{Key: device.Key(), Gateway: late})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lateDevice.PostReading(ctx, []byte("served by late gateway")); err != nil {
		t.Errorf("late gateway rejected authorized device: %v", err)
	}
}

func TestTransferSettlementOnConfirmation(t *testing.T) {
	ctx := context.Background()
	dep := newTestDeployment(t)
	alice := newTestDevice(t, dep.full, nil)
	bobKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dep.mgr.AuthorizeDevice(alice.Key().Public(), alice.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	dep.full.Tokens().Mint(alice.Address(), 100)

	res, err := alice.Transfer(ctx, bobKey.Address(), 40)
	if err != nil {
		t.Fatal(err)
	}
	// Not settled until confirmed.
	if bal := dep.full.Tokens().Balance(bobKey.Address()); bal != 0 {
		t.Errorf("settled before confirmation: %d", bal)
	}
	// Drive confirmation with follow-on traffic.
	for i := 0; i < 12; i++ {
		if _, err := alice.PostReading(ctx, []byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	info, err := dep.full.InfoOf(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != tangle.StatusConfirmed {
		t.Fatalf("transfer status = %v (weight %d)", info.Status, info.CumulativeWeight)
	}
	if bal := dep.full.Tokens().Balance(bobKey.Address()); bal != 40 {
		t.Errorf("bob balance = %d, want 40", bal)
	}
	if bal := dep.full.Tokens().Balance(alice.Address()); bal != 60 {
		t.Errorf("alice balance = %d, want 60", bal)
	}
}

// TestSplitDoubleSpendResolvesAlikeOnBothGateways: one key signs both
// halves of a double spend, each submitted at a different gateway, so
// each gateway attaches its own half first and the other's by gossip. The
// halves tie on weight; both gateways must still give each half the same
// status and, once honest traffic has confirmed the winner, settle the
// same balances. A tie broken by arrival order would keep opposite halves.
func TestSplitDoubleSpendResolvesAlikeOnBothGateways(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		dep := newMultiNode(t, 2, nil)
		gw0, gw1 := dep.gateways[0], dep.gateways[1]
		key, err := identity.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var spenders, honest [2]*node.LightNode
		for i, gw := range dep.gateways {
			if spenders[i], err = node.NewLight(node.LightConfig{Key: key, Gateway: gw}); err != nil {
				t.Fatal(err)
			}
			honest[i] = newTestDevice(t, gw, nil)
			dep.mgr.AuthorizeDevice(honest[i].Key().Public(), honest[i].Key().BoxPublic())
		}
		dep.mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
		if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
			t.Fatal(err)
		}
		dep.flush(t)
		for _, gw := range dep.gateways {
			gw.Tokens().Mint(key.Address(), 100)
		}

		var halves [2]hashutil.Hash
		for i, s := range spenders {
			victim, err := identity.Generate()
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Transfer(ctx, victim.Address(), 100)
			if err != nil {
				t.Fatalf("round %d: half %d: %v", round, i, err)
			}
			halves[i] = res.Info.ID
		}
		dep.flush(t)
		sameStatus := func(when string) {
			t.Helper()
			for i, id := range halves {
				a, errA := gw0.InfoOf(id)
				b, errB := gw1.InfoOf(id)
				if errA != nil || errB != nil || a.Status != b.Status {
					t.Fatalf("round %d, %s: half %d is %v (%v) on one gateway and %v (%v) on the other",
						round, when, i, a.Status, errA, b.Status, errB)
				}
			}
		}
		sameStatus("after the flush")

		for r := 0; r < 15; r++ {
			for i, h := range honest {
				if _, err := h.PostReading(ctx, []byte(fmt.Sprintf("honest-%d-%d", r, i))); err != nil {
					t.Fatal(err)
				}
			}
			dep.flush(t)
		}
		sameStatus("after the honest rounds")
		b0, b1 := gw0.Tokens().Snapshot(), gw1.Tokens().Snapshot()
		if !reflect.DeepEqual(b0, b1) {
			t.Fatalf("round %d: settled balances diverge:\n%v\n%v", round, b0, b1)
		}
		if bal := gw0.Tokens().Balance(key.Address()); bal != 0 {
			t.Fatalf("round %d: the spender still holds %d; no half settled", round, bal)
		}
	}
}

// TestTransferSettlesWhenConfirmedAheadOfItsPredecessor: alice's two
// transfers sit on separate branches, and the later sequence confirms
// first. It must settle once its predecessor does, not be lost because it
// came out of order.
func TestTransferSettlesWhenConfirmedAheadOfItsPredecessor(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{}
	relay := newRelay(t, mgrKey, net)
	relay.Tokens().Mint(alice.Address(), 100)

	g := genesisIDs(t, relay)
	floor, now := testParams().MinDifficulty, time.Now()
	list := craftAuthTx(t, mgrKey, authz.List{Seq: 1, Devices: []string{identity.EncodePublic(alice.Public())}}, g[0], g[1], now)
	spend := func(seq uint64) *txn.Transaction {
		payload := txn.EncodeTransfer(txn.Transfer{To: bob.Address(), Amount: 10, Seq: seq})
		return craftTx(alice, txn.KindTransfer, payload, list.ID(), list.ID(), now, floor)
	}
	first, second := spend(0), spend(1)
	net.deliver(t, "peer", list, first, second)

	// confirm grows a chain of readings on top of tx until tx confirms.
	confirm := func(tx *txn.Transaction) {
		t.Helper()
		tip := tx.ID()
		for i := 0; ; i++ {
			info, err := relay.InfoOf(tx.ID())
			if err != nil {
				t.Fatal(err)
			}
			if info.Status == tangle.StatusConfirmed {
				return
			}
			if i == 20 {
				t.Fatalf("%s not confirmed under %d approvers", tx.ID().Short(), i)
			}
			r := craftTx(alice, txn.KindData, []byte(fmt.Sprintf("%s-%d", tx.ID().Short(), i)), tip, tip, now, floor)
			net.deliver(t, "peer", r)
			tip = r.ID()
		}
	}
	confirm(second)
	if info, _ := relay.InfoOf(first.ID()); info.Status == tangle.StatusConfirmed {
		t.Fatal("fixture: sequence 0 confirmed together with sequence 1")
	}
	if got := relay.Tokens().Balance(bob.Address()); got != 0 {
		t.Errorf("bob holds %d before sequence 0 confirmed, want 0", got)
	}
	confirm(first)
	if got := relay.Tokens().Balance(bob.Address()); got != 20 {
		t.Errorf("bob holds %d after both transfers confirmed, want 20", got)
	}
	if got := relay.Tokens().Balance(alice.Address()); got != 80 {
		t.Errorf("alice holds %d after both transfers confirmed, want 80", got)
	}
}

func TestRateLimiting(t *testing.T) {
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     testParams(),
		Clock:      clk,
		RateLimit:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	device := newTestDevice(t, full, clk)
	mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := mgr.PublishAuthorization(context.Background()); err != nil {
		t.Fatal(err)
	}

	accepted, limited := 0, 0
	for i := 0; i < 10; i++ {
		_, err := device.PostReading(context.Background(), []byte("x"))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, node.ErrRateLimited):
			limited++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// Manager published one tx in this window too; allow one slack.
	if accepted > 3 {
		t.Errorf("accepted = %d with limit 3", accepted)
	}
	if limited < 7 {
		t.Errorf("limited = %d", limited)
	}

	// Window rolls over with the clock.
	clk.Advance(2 * time.Second)
	if _, err := device.PostReading(context.Background(), []byte("next window")); err != nil {
		t.Errorf("post in fresh window: %v", err)
	}
}

func TestGatewayRejectsForeignAuthorizationList(t *testing.T) {
	ctx := context.Background()
	dep := newTestDeployment(t)
	impostor := newTestDevice(t, dep.full, nil)
	dep.mgr.AuthorizeDevice(impostor.Key().Public(), impostor.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	// The (authorized!) impostor tries to publish its own list.
	_, err := impostor.SubmitRaw(ctx, txn.KindAuthorization, []byte(`{"seq":99,"devices":[]}`))
	if err == nil {
		t.Fatal("foreign authorization list accepted")
	}
}

func TestDifficultyDropsForActiveDevice(t *testing.T) {
	ctx := context.Background()
	dep := newTestDeployment(t)
	device := newTestDevice(t, dep.full, nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	initial := dep.full.DifficultyFor(device.Address())
	for i := 0; i < 20; i++ {
		if _, err := device.PostReading(ctx, []byte("active")); err != nil {
			t.Fatal(err)
		}
	}
	after := dep.full.DifficultyFor(device.Address())
	if after >= initial {
		t.Errorf("difficulty %d → %d, want reduced for active node", initial, after)
	}
	stats := device.PowTime.Summarize()
	if stats.Count != 20 {
		t.Errorf("pow observations = %d", stats.Count)
	}
}

func TestCountersTrack(t *testing.T) {
	ctx := context.Background()
	dep := newTestDeployment(t)
	device := newTestDevice(t, dep.full, nil)

	if _, err := device.PostReading(ctx, []byte("x")); err == nil {
		t.Fatal("unauthorized accepted")
	}
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := device.PostReading(ctx, []byte("y")); err != nil {
		t.Fatal(err)
	}
	c := dep.full.CountersView()
	if c.Unauthorized.Value() < 1 {
		t.Error("unauthorized counter")
	}
	if c.Accepted.Value() < 2 { // auth list + reading
		t.Errorf("accepted counter = %d", c.Accepted.Value())
	}
}

func TestManagerKeyDistUnknownDevice(t *testing.T) {
	dep := newTestDeployment(t)
	ghost, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.mgr.StartKeyDistribution(context.Background(), ghost.Address()); !errors.Is(err, node.ErrUnknownDevice) {
		t.Errorf("err = %v", err)
	}
}

func TestLightConfigValidation(t *testing.T) {
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.NewLight(node.LightConfig{Key: key}); !errors.Is(err, node.ErrNoGateway) {
		t.Errorf("err = %v", err)
	}
	if _, err := node.NewLight(node.LightConfig{}); !errors.Is(err, node.ErrNoKey) {
		t.Errorf("err = %v", err)
	}
}

func TestPartitionedGatewayRecovers(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 2, nil)
	device := newTestDevice(t, dep.gateways[0], nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	dep.bus.Isolate("gw-1")
	res, err := device.PostReading(ctx, []byte("during partition"))
	if err != nil {
		t.Fatal(err)
	}
	// Force the async fan-out to attempt (and fail) the partitioned send
	// now, not after the partition heals.
	dep.flush(t)
	if dep.gateways[1].Tangle().Contains(res.Info.ID) {
		t.Fatal("partitioned gateway received the transaction")
	}
	dep.bus.Restore("gw-1")
	dep.gateways[1].SyncAll(ctx)
	if !dep.gateways[1].Tangle().Contains(res.Info.ID) {
		t.Error("healed gateway did not catch up")
	}
	// The synced gateway's credit view converges too.
	if core.Credit((dep.gateways[1].Engine().CreditOf(device.Address(), time.Now()))).CrP <= 0 {
		t.Error("healed gateway has no credit record for the device")
	}
}

func TestKeyDistributionAcrossGateways(t *testing.T) { inBubble(t, testKeyDistributionAcrossGateways) }
func testKeyDistributionAcrossGateways(t *testing.T) {
	// The Fig-4 exchange rides the replicated ledger: the manager posts
	// M1 through its own node while the device polls a *different*
	// gateway; gossip carries every protocol message both ways.
	ctx := context.Background()
	dep := newMultiNode(t, 2, nil)
	deviceKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	device, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: dep.gateways[1]})
	if err != nil {
		t.Fatal(err)
	}
	dep.mgr.AuthorizeDevice(deviceKey.Public(), deviceKey.BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.mgr.StartKeyDistribution(ctx, device.Address()); err != nil {
		t.Fatal(err)
	}

	driveKeyDistribution(t, dep.mgr, device)
	if !device.HasDataKey() {
		t.Fatal("device has no key")
	}
	// Encrypted data posted via gateway 1 decrypts with the manager's
	// issued copy.
	res, err := device.PostReading(ctx, []byte("cross-gw secret"))
	if err != nil {
		t.Fatal(err)
	}
	dep.flush(t) // the manager reads the posting below
	key, ok := dep.mgr.IssuedKey(device.Address())
	if !ok {
		t.Fatal("manager has no issued key")
	}
	stored, err := dep.mgr.Node().GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, err := dataauth.Open(stored.Payload, &key)
	if err != nil || string(body) != "cross-gw secret" {
		t.Fatalf("decrypt: %q, %v", body, err)
	}
}

func TestGossipRejectsForgedTraffic(t *testing.T) {
	// A malicious peer joins the gossip fabric directly and sends
	// garbage: undecodable bytes, unsigned transactions, and
	// wrong-difficulty submissions. The node must stay healthy and
	// admit none of it.
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	evilNet, err := dep.bus.Join("evil")
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := dep.gateways[0].Tangle().Size()

	// Undecodable payload.
	_ = evilNet.Broadcast(ctx, gossip.Message{
		Type:   gossip.MsgTransaction,
		TxData: [][]byte{[]byte("not a transaction")},
	})

	// Well-formed but unsigned/unauthorized transaction.
	evilKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g := dep.gateways[0].Tangle().Genesis()
	forged := &txn.Transaction{
		Trunk:     g[0],
		Branch:    g[1],
		Timestamp: time.Now(),
		Kind:      txn.KindData,
		Payload:   []byte("forged"),
	}
	forged.Sign(evilKey) // valid signature, but unauthorized sender
	_ = evilNet.Broadcast(ctx, gossip.Message{
		Type:   gossip.MsgTransaction,
		TxData: [][]byte{forged.Encode()},
	})

	// Tampered signature.
	tampered := forged.Clone()
	tampered.Signature[0] ^= 1
	_ = evilNet.Broadcast(ctx, gossip.Message{
		Type:   gossip.MsgTransaction,
		TxData: [][]byte{tampered.Encode()},
	})

	if got := dep.gateways[0].Tangle().Size(); got != sizeBefore {
		t.Errorf("forged gossip changed ledger size %d → %d", sizeBefore, got)
	}
	// The node still serves honest traffic afterwards.
	device := newTestDevice(t, dep.gateways[0], nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := device.PostReading(ctx, []byte("still alive")); err != nil {
		t.Fatalf("post after forged gossip: %v", err)
	}
}
