package node_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// mineTx grinds the transaction's nonce to the given difficulty. Mine
// before the first ID()/Encode() (the canonical encoding is cached).
func mineTx(tx *txn.Transaction, difficulty int) {
	for tx.Nonce = 0; ; tx.Nonce++ {
		if txn.PowDigest(tx.Trunk, tx.Branch, tx.Nonce).LeadingZeroBits() >= difficulty {
			return
		}
	}
}

// craftTx hand-builds a mined, signed transaction with explicit
// parents — the deterministic replacement for a live submission when a
// test needs exact tangle shape.
func craftTx(key *identity.KeyPair, kind txn.Kind, payload []byte, trunk, branch hashutil.Hash, ts time.Time, difficulty int) *txn.Transaction {
	tx := &txn.Transaction{
		Trunk:     trunk,
		Branch:    branch,
		Timestamp: ts,
		Kind:      kind,
		Payload:   payload,
	}
	mineTx(tx, difficulty)
	tx.Sign(key)
	return tx
}

func craftAuthTx(t *testing.T, mgrKey *identity.KeyPair, list authz.List, trunk, branch hashutil.Hash, ts time.Time) *txn.Transaction {
	t.Helper()
	payload, err := authz.EncodeList(list)
	if err != nil {
		t.Fatal(err)
	}
	return craftTx(mgrKey, txn.KindAuthorization, payload, trunk, branch, ts, testParams().MinDifficulty)
}

// injectedNode is a gateway receiving gossip from a bare injector peer:
// the injector joins the bus WITHOUT a handler, so the node's reactive
// lane back to it (orphan sync) fails harmlessly and every admission
// decision is forced from exactly the bytes injected — the deterministic
// reproduction of an arbitrary relay interleaving.
type injectedNode struct {
	n   *node.FullNode
	inj gossip.Network
}

func newInjectedNode(t *testing.T, mgrKey *identity.KeyPair, clk clock.Clock, mutate func(*node.FullConfig)) *injectedNode {
	t.Helper()
	bus := gossip.NewBus()
	t.Cleanup(func() { _ = bus.Close() })
	nodeNet, err := bus.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	injNet, err := bus.Join("inj")
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.FullConfig{
		Key:        key,
		Role:       identity.RoleGateway,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Clock:      clk,
		Network:    nodeNet,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := node.NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return &injectedNode{n: n, inj: injNet}
}

// send injects one gossip batch and waits for its synchronous handling.
func (in *injectedNode) send(t *testing.T, txs ...*txn.Transaction) {
	t.Helper()
	data := make([][]byte, len(txs))
	for i, tx := range txs {
		data[i] = tx.Encode()
	}
	if _, err := in.inj.Request(context.Background(), "b",
		gossip.Message{Type: gossip.MsgTransaction, TxData: data}); err != nil {
		t.Fatalf("inject: %v", err)
	}
}

// TestEvidenceGatePinnedRegression reproduces — deterministically — the
// orphaned-auth-list interleaving behind the old revocation-storm flake
// (~8%/run), and proves the evidence-at-admission gate resolves it.
//
// The history: list1 authorizes device D; D posts reading T (a child of
// list1); list2 revokes D; list3 (a child of T) reinstates D. A relay
// receives the lists AHEAD of T — exactly what gossip reordering or a
// revocation storm produces. Under the old live-registry gate, T is
// judged against list2's view, rejected as unauthorized, and list3 —
// T's descendant — orphans forever: the receiver's registry is stuck
// one revision behind the manager's. Under the evidence gate, T's
// admission evidence is list1 (its past cone), D was a member then, so
// T admits and list3 repairs out of quarantine.
func TestEvidenceGatePinnedRegression(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))

	// Build the real history on a standalone manager node A.
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        mgrKey,
		Role:       identity.RoleManager,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Clock:      clk,
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
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	lists, err := full.TransactionsByKind(txn.KindAuthorization, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 1 {
		t.Fatalf("%d authorization lists on the manager, want 1", len(lists))
	}
	list1 := lists[0]
	res, err := device.PostReading(ctx, []byte("reading"))
	if err != nil {
		t.Fatal(err)
	}
	reading, err := full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// On the quiet single-node tangle list1 is the sole tip when the
	// reading mines, so its past cone pins evidence sequence 1.
	if reading.Trunk != list1.ID() || reading.Branch != list1.ID() {
		t.Fatalf("reading parents (%s, %s), want both %s",
			reading.Trunk, reading.Branch, list1.ID())
	}
	// list2 revokes D (whole-state list without it); list3 — approving
	// the reading — reinstates D. Hand-crafted rather than published so
	// the parent shape is exact.
	list2 := craftAuthTx(t, mgrKey, authz.List{Seq: 2},
		list1.ID(), list1.ID(), clk.Now())
	list3 := craftAuthTx(t, mgrKey,
		authz.List{Seq: 3, Devices: []string{identity.EncodePublic(device.Key().Public())}},
		reading.ID(), list2.ID(), clk.Now())

	// The flaky interleaving: both lists arrive before the reading.
	deliver := func(in *injectedNode) {
		in.send(t, list1, list2)
		in.send(t, list3) // orphan: its parent (the reading) is missing
		in.send(t, reading)
	}

	t.Run("evidence-gate", func(t *testing.T) {
		in := newInjectedNode(t, mgrKey, clk, nil)
		deliver(in)
		c := in.n.CountersView()
		if !in.n.Tangle().Contains(reading.ID()) {
			t.Error("reading rejected despite valid admission evidence")
		}
		if !in.n.Tangle().Contains(list3.ID()) {
			t.Error("list3 still orphaned after its parent arrived")
		}
		if got := in.n.Registry().Seq(); got != 3 {
			t.Errorf("registry seq = %d, want 3", got)
		}
		if !in.n.Registry().IsAuthorizedDevice(device.Key().Address()) {
			t.Error("device not reinstated")
		}
		if got := c.StaleAuthRejects.Value(); got != 0 {
			t.Errorf("StaleAuthRejects = %d, want 0", got)
		}
		if got := c.QuarantineRepairs.Value(); got < 1 {
			t.Errorf("QuarantineRepairs = %d, want ≥ 1 (list3 must repair)", got)
		}
		if got := in.n.QuarantineLen(); got != 0 {
			t.Errorf("QuarantineLen = %d, want 0", got)
		}
	})
}

// TestQuarantineBounded pins the quarantine's two bounds: a flood of
// unresolvable transactions evicts FIFO past the capacity (O(cap)
// memory under attack), and entries past their TTL are dropped at the
// next kick instead of waiting forever.
func TestQuarantineBounded(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	in := newInjectedNode(t, mgrKey, clk, nil)
	in.n.SetQuarantineBounds(4, time.Minute)
	list1 := craftAuthTx(t, mgrKey,
		authz.List{Seq: 1, Devices: []string{identity.EncodePublic(devKey.Public())}},
		genesisIDs(t, in.n)[0], genesisIDs(t, in.n)[1], clk.Now())
	in.send(t, list1)

	// Ten authorized-sender transactions with fabricated parents: all
	// structurally valid, none resolvable (the parents do not exist
	// anywhere), so every one parks.
	floor := testParams().MinDifficulty
	for i := 0; i < 10; i++ {
		var trunk, branch hashutil.Hash
		trunk[0], trunk[1] = byte(i+1), 0xAA
		branch[0], branch[1] = byte(i+1), 0xBB
		in.send(t, craftTx(devKey, txn.KindData, []byte("x"), trunk, branch, clk.Now(), floor))
	}
	c := in.n.CountersView()
	if got := in.n.QuarantineLen(); got != 4 {
		t.Fatalf("QuarantineLen = %d, want cap 4", got)
	}
	if got := c.Quarantined.Value(); got != 10 {
		t.Errorf("Quarantined = %d, want 10", got)
	}
	if got := c.QuarantineDrops.Value(); got != 6 {
		t.Errorf("QuarantineDrops = %d, want 6 FIFO evictions", got)
	}

	// Past the TTL, the next kick (here: a valid admission) clears the
	// survivors as expired.
	clk.Advance(2 * time.Minute)
	valid := craftTx(devKey, txn.KindData, []byte("ok"),
		genesisIDs(t, in.n)[0], genesisIDs(t, in.n)[1], clk.Now(), floor)
	in.send(t, valid)
	c = in.n.CountersView()
	if !in.n.Tangle().Contains(valid.ID()) {
		t.Fatal("valid transaction rejected")
	}
	if got := in.n.QuarantineLen(); got != 0 {
		t.Errorf("QuarantineLen = %d after TTL expiry, want 0", got)
	}
	if got := c.QuarantineDrops.Value(); got != 10 {
		t.Errorf("QuarantineDrops = %d, want 10 (6 evictions + 4 TTL)", got)
	}
	if got := c.StaleAuthRejects.Value(); got != 0 {
		t.Errorf("StaleAuthRejects = %d, want 0", got)
	}
}

// TestRelayRejectCounterParity pins exact-reject accounting across every
// bulk edge by which bytes reach the ledger. One clean admission, one bad
// signature, one Sybil — all three approving a parent P — and a rogue
// authorization list (a non-manager's, its signature corrupted too) are
// delivered as one batch (the signatures settled together by the verify
// stage), as one-transaction batches (each a batch of one through the same
// stage), as a sync page that pull fetches, and ahead of P, so that the
// data transactions park in the quarantine and are retried from there when
// P lands. Each delivery must classify the set into the exact counter
// values below, each reject counted once. Every relayed delivery also
// carries an orphan whose parent never arrives: it parks, counts one
// Quarantined and no reject, because a parked orphan is not refused. The
// quarantine delivery parks two more on first sight (valid and the Sybil)
// and adds them to Quarantined only; the deliveries are compared with each
// other net of those.
//
// The rogue list pins the order of a relayed list's checks: the manager
// check runs before the signature, so a list failing both counts one
// Unauthorized and no Rejected.
//
// The fifth delivery is the journal: a node's own trusted state, which no
// relay gate judges. There the bad signature is refused by the same verify
// stage — the boot fails naming it — and no counter moves.
func TestRelayRejectCounterParity(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sybilKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	floor := testParams().MinDifficulty
	now := time.Now()
	roots := tangle.GenesisTransactions(mgrKey.Public())
	g := [2]hashutil.Hash{roots[0].ID(), roots[1].ID()}
	list1 := craftAuthTx(t, mgrKey,
		authz.List{Seq: 1, Devices: []string{identity.EncodePublic(devKey.Public())}},
		g[0], g[1], now)
	parent := craftTx(devKey, txn.KindData, []byte("p"), g[0], g[1], now, floor)
	valid := craftTx(devKey, txn.KindData, []byte("v"), parent.ID(), g[0], now, floor)
	badSig := craftTx(devKey, txn.KindData, []byte("b"), parent.ID(), g[0], now, floor)
	badSig.Signature[0] ^= 0xFF // corrupt BEFORE the encoding caches
	sybil := craftTx(sybilKey, txn.KindData, []byte("s"), parent.ID(), g[0], now, floor)
	rogueList := craftAuthTx(t, sybilKey,
		authz.List{Seq: 2, Devices: []string{identity.EncodePublic(sybilKey.Public())}},
		g[0], g[1], now)
	rogueList.Signature[0] ^= 0xFF
	set := []*txn.Transaction{valid, badSig, sybil, rogueList}
	missing := craftTx(devKey, txn.KindData, []byte("m"), g[0], g[1], now, floor) // never delivered
	orphan := craftTx(devKey, txn.KindData, []byte("o"), missing.ID(), g[0], now, floor)
	relayed := append(slices.Clone(set), orphan)

	deliveries := map[string]func(t *testing.T, relay *node.FullNode, net *scriptedNet){
		"one-batch": func(t *testing.T, _ *node.FullNode, net *scriptedNet) {
			net.deliver(t, "peer", list1, parent)
			net.deliver(t, "peer", relayed...)
		},
		"batches-of-one": func(t *testing.T, _ *node.FullNode, net *scriptedNet) {
			net.deliver(t, "peer", list1, parent)
			for _, tx := range relayed {
				net.deliver(t, "peer", tx)
			}
		},
		"sync-page": func(t *testing.T, relay *node.FullNode, net *scriptedNet) {
			net.deliver(t, "peer", list1, parent)
			serveLedger(net, relayed...)
			relay.SyncAll(context.Background())
		},
		"quarantine-retry": func(t *testing.T, relay *node.FullNode, net *scriptedNet) {
			net.deliver(t, "peer", list1)
			net.deliver(t, "peer", relayed...)
			if got := relay.QuarantineLen(); got != 3 {
				t.Fatalf("%d parked ahead of their parent, want valid, sybil and the orphan", got)
			}
			net.deliver(t, "peer", parent)
			c := relay.CountersView()
			if got := c.QuarantineRepairs.Value(); got != 1 {
				t.Errorf("QuarantineRepairs = %d, want 1 (valid)", got)
			}
			if got := relay.QuarantineLen(); got != 1 {
				t.Errorf("QuarantineLen = %d after the retry, want 1 (the orphan)", got)
			}
		},
	}
	parked := map[string]int64{"quarantine-retry": 2} // parked on first sight beside the orphan, by delivery
	type row struct {
		name   string
		of     func(*node.Counters) int64
		want   int64 // before the quarantine delivery's first sights
		parked bool  // each of those adds one
	}
	rows := []row{
		{"Accepted", func(c *node.Counters) int64 { return c.Accepted.Value() }, 3, false},                 // list1, parent, valid
		{"Rejected", func(c *node.Counters) int64 { return c.Rejected.Value() }, 1, false},                 // the bad signature, once; no orphan
		{"Quarantined", func(c *node.Counters) int64 { return c.Quarantined.Value() }, 1, true},            // the orphan
		{"Unauthorized", func(c *node.Counters) int64 { return c.Unauthorized.Value() }, 1, false},         // the rogue list, once
		{"StaleAuthRejects", func(c *node.Counters) int64 { return c.StaleAuthRejects.Value() }, 1, false}, // the Sybil, once
	}
	netOf := map[string][]int64{} // by row, each delivery's value net of its parked orphans
	for name, deliver := range deliveries {
		t.Run(name, func(t *testing.T) {
			net := &scriptedNet{peers: []string{"peer"}}
			relay := newRelay(t, mgrKey, net)
			deliver(t, relay, net)
			if !relay.Tangle().Contains(valid.ID()) {
				t.Fatal("valid transaction rejected")
			}
			c := relay.CountersView()
			for _, r := range rows {
				v, extra := r.of(c), int64(0)
				if r.parked {
					extra = parked[name]
				}
				netOf[r.name] = append(netOf[r.name], v-extra)
				if v != r.want+extra {
					t.Errorf("%s = %d, want exactly %d", r.name, v, r.want+extra)
				}
			}
		})
	}
	for _, r := range rows {
		for _, v := range netOf[r.name] {
			if v != netOf[r.name][0] {
				t.Errorf("%s net of parked orphans differs between deliveries: %v", r.name, netOf[r.name])
				break
			}
		}
	}

	t.Run("journal-replay", func(t *testing.T) {
		fs := chaos.NewMemFS(7)
		writeJournal(t, fs, "gw.journal", append([]*txn.Transaction{list1, parent}, set...)...)
		relay := newRelay(t, mgrKey, &scriptedNet{})
		_, err := relay.EnablePersistenceFS(fs, "gw.journal")
		if !errors.Is(err, txn.ErrBadTxSignature) || !strings.Contains(err.Error(), badSig.ID().Short()) {
			t.Fatalf("boot = %v; want the bad signature refused, naming %s", err, badSig.ID().Short())
		}
		c := relay.CountersView()
		for name, v := range map[string]int64{"Accepted": c.Accepted.Value(), "Rejected": c.Rejected.Value(),
			"Unauthorized": c.Unauthorized.Value(), "StaleAuthRejects": c.StaleAuthRejects.Value()} {
			if v != 0 {
				t.Errorf("%s = %d after a replay, want 0: a journal is judged by its refusal", name, v)
			}
		}
	})
}

// genesisIDs returns the node's two genesis root IDs.
func genesisIDs(t *testing.T, n *node.FullNode) [2]hashutil.Hash {
	t.Helper()
	roots, err := n.TransactionsByKind(txn.KindGenesis, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("%d genesis roots, want 2", len(roots))
	}
	return [2]hashutil.Hash{roots[0].ID(), roots[1].ID()}
}

// TestPostDatedTransactionWaitsForTheClock: a reading stamped further
// ahead of a node's clock than the skew bound is refused at the
// submission edge and parked at the relay edge, where it attaches once
// the clock comes within the bound. A reading a minute ahead is admitted.
func TestPostDatedTransactionWaitsForTheClock(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	devKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	in := newInjectedNode(t, mgrKey, clk, nil)
	g := genesisIDs(t, in.n)
	list := craftAuthTx(t, mgrKey, authz.List{Seq: 1, Devices: []string{identity.EncodePublic(devKey.Public())}}, g[0], g[1], clk.Now())
	in.send(t, list)
	reading := func(tag string, ahead time.Duration) *txn.Transaction {
		return craftTx(devKey, txn.KindData, []byte(tag), list.ID(), g[0], clk.Now().Add(ahead), in.n.DifficultyFor(devKey.Address()))
	}

	if _, err := in.n.Submit(ctx, reading("a minute ahead", time.Minute)); err != nil {
		t.Fatalf("a reading inside the skew bound was refused: %v", err)
	}
	far := reading("past the bound", 2*time.Minute+10*time.Second)
	if _, err := in.n.Submit(ctx, far); !errors.Is(err, node.ErrTimestampAhead) {
		t.Fatalf("submission err = %v, want ErrTimestampAhead", err)
	}
	in.send(t, far)
	if in.n.Tangle().Contains(far.ID()) || in.n.QuarantineLen() != 1 {
		t.Fatalf("relayed past the bound: attached %v, %d parked; want it parked",
			in.n.Tangle().Contains(far.ID()), in.n.QuarantineLen())
	}

	clk.Advance(20 * time.Second) // within the bound now, and within the quarantine's TTL
	in.send(t, reading("kick", 0))
	if !in.n.Tangle().Contains(far.ID()) || in.n.QuarantineLen() != 0 {
		t.Fatalf("once the clock caught up: attached %v, %d parked; want it attached",
			in.n.Tangle().Contains(far.ID()), in.n.QuarantineLen())
	}
}
