package node_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// TestMultiGenerationCompactRecovery extends the single-generation
// crash-recovery pin: a node that lives through TWO Compact cycles
// (journal generations 1 and 2) — with a reboot
// in between — must replay each compacted segment through the
// snapshot-boundary Restore path and come back with the exact live
// working set, a durable pruned-ID count, and a working control plane.
func TestMultiGenerationCompactRecovery(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	fs := chaos.NewMemFS(7)
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	boot := func() (*node.FullNode, *node.Manager, int) {
		full, err := node.NewFull(node.FullConfig{
			Key:        managerKey,
			Role:       identity.RoleManager,
			ManagerPub: managerKey.Public(),
			Credit:     testParams(),
			Clock:      clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := full.EnablePersistenceFS(fs, "multi.journal")
		if err != nil {
			t.Fatalf("enable persistence: %v", err)
		}
		mgr, err := node.NewManager(full)
		if err != nil {
			t.Fatal(err)
		}
		return full, mgr, replayed
	}
	post := func(full *node.FullNode, mgr *node.Manager, n int, tag string) {
		t.Helper()
		device := newTestDevice(t, full, clk)
		mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
		if _, err := mgr.PublishAuthorization(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			clk.Advance(time.Minute)
			if _, err := device.PostReading(ctx, []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle := func(full *node.FullNode) {
		t.Helper()
		if dropped, _, err := full.Compact(10 * time.Minute); err != nil {
			t.Fatal(err)
		} else if dropped == 0 {
			t.Fatal("compact dropped nothing")
		}
	}
	// churn publishes k authorize/deauthorize revision pairs: pressure
	// on the evidence window, which must stay pinned at its floor across
	// compactions and reboots no matter how many revisions history holds.
	churn := func(mgr *node.Manager, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			key, err := identity.Generate()
			if err != nil {
				t.Fatal(err)
			}
			mgr.AuthorizeDevice(key.Public(), nil)
			if _, err := mgr.PublishAuthorization(ctx); err != nil {
				t.Fatal(err)
			}
			mgr.DeauthorizeDevice(key.Public())
			if _, err := mgr.PublishAuthorization(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Generation 1, then reboot.
	full, mgr, _ := boot()
	churn(mgr, 2)
	post(full, mgr, 30, "gen1")
	cycle(full)
	sizeAfter1 := full.Tangle().Size()
	cold1 := full.Tangle().SnapshottedCount()
	ev1 := full.MemoryStats().EvidenceVersions
	if ev1 == 0 || ev1 > 2 {
		t.Fatalf("evidence window after gen-1 compaction = %d versions, want 1..2", ev1)
	}
	if err := full.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	full.Close()
	fs.Reboot()

	full2, mgr2, _ := boot()
	if got := full2.Tangle().Size(); got != sizeAfter1 {
		t.Fatalf("gen-1 recovery size = %d, want %d", got, sizeAfter1)
	}
	if got := full2.Tangle().SnapshottedCount(); got < cold1 {
		t.Errorf("gen-1 recovery lost cold history: %d < %d", got, cold1)
	}
	// Replay re-observes every surviving list with its embedded stamp
	// and the boot-time prune re-cuts on the snapshot epoch, so the
	// recovered window is exactly the pre-crash one.
	if got := full2.MemoryStats().EvidenceVersions; got != ev1 {
		t.Fatalf("gen-1 recovery evidence window = %d versions, want %d (pre-crash)", got, ev1)
	}

	// Generation 2 on the recovered node, then reboot again.
	churn(mgr2, 2)
	post(full2, mgr2, 30, "gen2")
	cycle(full2)
	sizeAfter2 := full2.Tangle().Size()
	cold2 := full2.Tangle().SnapshottedCount()
	ev2 := full2.MemoryStats().EvidenceVersions
	if ev2 != ev1 {
		t.Fatalf("evidence window grew across generations: %d vs %d — not flat", ev2, ev1)
	}
	if cold2 <= cold1 {
		t.Fatalf("second compaction pruned nothing new: %d vs %d", cold2, cold1)
	}
	if _, gen, ok := full2.JournalStats(); !ok || gen != 2 {
		t.Fatalf("journal generation = %d (ok=%v), want 2", gen, ok)
	}
	if err := full2.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	full2.Close()
	fs.Reboot()

	full3, mgr3, _ := boot()
	defer full3.Close()
	defer full3.ClosePersistence()
	if got := full3.Tangle().Size(); got != sizeAfter2 {
		t.Fatalf("gen-2 recovery size = %d, want %d", got, sizeAfter2)
	}
	if got := full3.Tangle().SnapshottedCount(); got < cold2 {
		t.Errorf("gen-2 recovery lost cold history: %d < %d", got, cold2)
	}
	if full3.MemoryStats().ColdIndexBytes == 0 {
		t.Error("cold index empty after two pruning generations")
	}
	if got := full3.MemoryStats().EvidenceVersions; got != ev2 {
		t.Fatalf("gen-2 recovery evidence window = %d versions, want %d (pre-crash)", got, ev2)
	}
	// The twice-recovered node still serves.
	post(full3, mgr3, 3, "gen3")
}

// TestGatewaysCompactingInOneGridStepServeOneManifest: three gateways
// hold one ledger and compact with the same keep at three instants inside
// one step of the cutoff grid. Two saw the readings live, relayed by
// gossip and flushed only once at the end, so each attached a reading at
// its own instant; the third joined by SyncAll after the readings. All
// three must cut at the same boundary — the same cold epoch, the same
// boundary roots, the same snapshot manifest — which is what lets a joiner
// check one gateway's manifest against another's live region. A raw
// now−keep cutoff would have cut each later gateway some readings later,
// and a cut by attach time would depend on when each gateway received
// the readings.
func TestGatewaysCompactingInOneGridStepServeOneManifest(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	dep := newMultiNode(t, 2, clk)
	device := newTestDevice(t, dep.gateways[0], clk)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		clk.Advance(time.Minute)
		if _, err := device.PostReading(ctx, []byte(fmt.Sprintf("reading-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	dep.flush(t)
	late := dep.addGateway(t)
	late.SyncAll(ctx)
	want := dep.gateways[0].Tangle().Size()
	for i, gw := range dep.gateways {
		if got := gw.Tangle().Size(); got != want {
			t.Fatalf("gateway %d holds %d transactions, want one ledger of %d", i, got, want)
		}
	}

	// A second into the next grid step, then two minutes apart.
	const keep, grid = 10 * time.Minute, 5 * time.Minute
	clk.Advance(grid - clk.Now().Sub(clk.Now().Truncate(grid)) + time.Second)
	wantEpoch := clk.Now().Add(-keep).Truncate(grid)
	for i, gw := range dep.gateways {
		if i > 0 {
			clk.Advance(2 * time.Minute)
		}
		if dropped, _, err := gw.Compact(keep); err != nil || dropped == 0 {
			t.Fatalf("gateway %d compacted %d (err %v)", i, dropped, err)
		}
	}

	m0 := dep.gateways[0].SnapshotManifest()
	if !m0.Epoch.Equal(wantEpoch) || len(m0.Boundary) == 0 {
		t.Fatalf("cold epoch %v with %d boundary roots, want the grid line %v and a boundary", m0.Epoch, len(m0.Boundary), wantEpoch)
	}
	for i, gw := range dep.gateways[1:] {
		if m := gw.SnapshotManifest(); !reflect.DeepEqual(m0, m) {
			t.Fatalf("gateway %d's snapshot manifest diverges from gateway 0's:\n%+v\n%+v", i+1, m0, m)
		}
	}
}

// TestSnapshotBootstrapEquivalence is the tier test for the snapshot-
// shipped join: a ~20-node deployment (manager + 3 gateways + 14
// devices + 2 joiners) ages past several prune windows, the gateways
// compact, and then two fresh gateways join — one bootstrapping from a
// pruned gateway's snapshot manifest, one replaying full history from
// the (unpruned) manager. The snapshot-bootstrapped node must converge
// on a live region byte-identical to its serving peer's, and every
// node must agree on each device's credit-derived difficulty.
func TestSnapshotBootstrapEquivalence(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	dep := newMultiNode(t, 3, clk)

	const nDevices = 14
	var devices []*node.LightNode
	for i := 0; i < nDevices; i++ {
		key, err := identity.Generate()
		if err != nil {
			t.Fatal(err)
		}
		device, err := node.NewLight(node.LightConfig{
			Key:     key,
			Gateway: dep.gateways[i%len(dep.gateways)],
			Clock:   clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		devices = append(devices, device)
		dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	}
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	dep.flush(t)

	// Age the deployment well past the keep window, with a revoke →
	// reinstate revision pair mid-history so the authorization epochs a
	// joiner must reconstruct are non-trivial (three list versions, one
	// of which excludes device 0).
	const rounds = 12
	for r := 0; r < rounds; r++ {
		clk.Advance(time.Minute)
		switch r {
		case 4:
			dep.mgr.DeauthorizeDevice(devices[0].Key().Public())
			if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
				t.Fatal(err)
			}
			dep.flush(t)
		case 8:
			dep.mgr.AuthorizeDevice(devices[0].Key().Public(), devices[0].Key().BoxPublic())
			if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
				t.Fatal(err)
			}
			dep.flush(t)
		}
		for i, device := range devices {
			if i == 0 && r >= 4 && r < 8 {
				continue // revoked for these rounds
			}
			if _, err := device.PostReading(ctx, []byte(fmt.Sprintf("r%d-d%d", r, i))); err != nil {
				t.Fatalf("round %d device %d: %v", r, i, err)
			}
		}
		dep.flush(t)
	}
	// Converge everyone before cutting.
	for _, gw := range dep.gateways {
		gw.SyncAll(ctx)
	}
	dep.mgr.Node().SyncAll(ctx)
	dep.flush(t)
	fullSize := dep.mgr.Node().Tangle().Size()
	for i, gw := range dep.gateways {
		if got := gw.Tangle().Size(); got != fullSize {
			t.Fatalf("gateway %d did not converge: %d vs %d", i, got, fullSize)
		}
	}

	// Gateways compact (shared clock → identical cut); the manager keeps
	// full history and stays the replay peer.
	const keep = 5 * time.Minute
	for i, gw := range dep.gateways {
		if dropped, _, err := gw.Compact(keep); err != nil {
			t.Fatal(err)
		} else if dropped == 0 {
			t.Fatalf("gateway %d compacted nothing", i)
		}
	}
	gw0 := dep.gateways[0]
	if gw0.Tangle().SnapshottedCount() == 0 {
		t.Fatal("no cold history to bootstrap over")
	}

	join := func(name string) *node.FullNode {
		t.Helper()
		key, err := identity.Generate()
		if err != nil {
			t.Fatal(err)
		}
		net, err := dep.bus.Join(name)
		if err != nil {
			t.Fatal(err)
		}
		joiner, err := node.NewFull(node.FullConfig{
			Key:        key,
			Role:       identity.RoleGateway,
			ManagerPub: dep.mgrKey.Public(),
			Credit:     testParams(),
			Clock:      clk,
			Network:    net,
		})
		if err != nil {
			t.Fatal(err)
		}
		return joiner
	}

	snap := join("joiner-snap")
	snapStats, err := snap.BootstrapFrom(ctx, "gw-0")
	if err != nil {
		t.Fatalf("snapshot bootstrap: %v", err)
	}
	if snapStats.Mode != "snapshot" || snapStats.Boundary == 0 {
		t.Fatalf("snapshot join stats = %+v, want snapshot mode with boundary roots", snapStats)
	}

	replay := join("joiner-full")
	replayStats, err := replay.BootstrapFrom(ctx, "manager")
	if err != nil {
		t.Fatalf("replay bootstrap: %v", err)
	}
	if replayStats.Mode != "replay" {
		t.Fatalf("replay join stats = %+v, want replay mode", replayStats)
	}

	// The snapshot-bootstrapped live region is byte-identical to the
	// serving peer's.
	peerTxs := gw0.Tangle().ExportRange(0, gw0.Tangle().Size())
	if got, want := snap.Tangle().Size(), gw0.Tangle().Size(); got != want {
		t.Fatalf("bootstrapped size = %d, want %d", got, want)
	}
	for _, tx := range peerTxs {
		got, err := snap.GetTransaction(tx.ID())
		if err != nil {
			t.Fatalf("bootstrapped node missing %s: %v", tx.ID().Short(), err)
		}
		if string(got.Encode()) != string(tx.Encode()) {
			t.Fatalf("tx %s differs byte-for-byte after bootstrap", tx.ID().Short())
		}
	}
	// The full-replay joiner holds ALL history — strictly more — and
	// still contains the live region.
	if replay.Tangle().Size() <= snap.Tangle().Size() {
		t.Errorf("replay joiner resident %d not larger than snapshot joiner %d",
			replay.Tangle().Size(), snap.Tangle().Size())
	}
	for _, tx := range peerTxs {
		if !replay.Tangle().Contains(tx.ID()) {
			t.Fatalf("replay joiner missing live tx %s", tx.ID().Short())
		}
	}

	// Evidence equivalence: authorization lists are a retained kind, so
	// both joiners — snapshot-bootstrapped and full-replay — rebuild the
	// same epoch window as the never-pruned manager: identical registry
	// sequence and an identical admission verdict for every device at
	// every possible evidence sequence (0 through one past current).
	mgrReg := dep.mgr.Node().Registry()
	curSeq := mgrReg.Seq()
	if curSeq != 3 {
		t.Fatalf("manager registry seq = %d, want 3 (initial, revoke, reinstate)", curSeq)
	}
	joiners := map[string]*node.FullNode{"snapshot": snap, "replay": replay}
	for name, joiner := range joiners {
		if got := joiner.Registry().Seq(); got != curSeq {
			t.Fatalf("%s joiner registry seq = %d, want %d", name, got, curSeq)
		}
		if !joiner.Registry().IsAuthorizedDevice(devices[0].Key().Address()) {
			t.Fatalf("%s joiner did not reinstate device 0", name)
		}
	}
	for i, device := range devices {
		addr := device.Key().Address()
		for ev := uint64(0); ev <= curSeq+1; ev++ {
			wantV, wantMissing := mgrReg.EvidenceVerdict(addr, ev)
			for name, joiner := range joiners {
				gotV, gotMissing := joiner.Registry().EvidenceVerdict(addr, ev)
				if gotV != wantV || gotMissing != wantMissing {
					t.Errorf("device %d, evidence %d: %s joiner verdict %v (missing %d) != manager %v (missing %d)",
						i, ev, name, gotV, gotMissing, wantV, wantMissing)
				}
			}
		}
	}

	// Credit equivalence: every full node — pruned peer, snapshot
	// joiner, replay joiner — derives the same difficulty for every
	// device.
	for i, device := range devices {
		want := gw0.DifficultyFor(device.Address())
		if got := snap.DifficultyFor(device.Address()); got != want {
			t.Errorf("device %d: snapshot joiner difficulty %d != peer %d", i, got, want)
		}
		if got := replay.DifficultyFor(device.Address()); got != want {
			t.Errorf("device %d: replay joiner difficulty %d != peer %d", i, got, want)
		}
	}
}

// TestSnapshotJoinerInheritsABackdatedLazyTip: a device approves two
// long-approved readings (a lazy tip, §III) with a transaction signed
// before the next snapshot's cutoff but attached after it. The snapshot
// cuts by the signed time, so it prunes the transaction, and a joiner
// never attaches it and cannot detect the laziness itself. The manifest
// must carry the event exactly once, and the joiner must charge the
// device what its peer charges.
func TestSnapshotJoinerInheritsABackdatedLazyTip(t *testing.T) {
	ctx := context.Background()
	start := time.Unix(1_700_000_000, 0)
	clk := clock.NewVirtual(start)
	dep := newMultiNode(t, 1, clk)
	gw := dep.gateways[0]
	honest := newTestDevice(t, gw, clk)
	lazyKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dep.mgr.AuthorizeDevice(honest.Key().Public(), honest.Key().BoxPublic())
	dep.mgr.AuthorizeDevice(lazyKey.Public(), lazyKey.BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	dep.flush(t)

	var old []hashutil.Hash
	for i := 0; i < 5; i++ {
		clk.Advance(time.Minute)
		res, err := honest.PostReading(ctx, []byte(fmt.Sprintf("old-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, res.Info.ID)
	}
	var parents []hashutil.Hash // approved half an hour before the lazy tip
	for _, id := range old {
		if !slices.Contains(gw.Tangle().Tips(), id) {
			parents = append(parents, id)
		}
	}
	if len(parents) < 2 {
		t.Fatalf("only %d of the old readings left the tip pool", len(parents))
	}

	clk.Advance(30 * time.Minute)
	lazyAddr := lazyKey.Address()
	lazy := craftTx(lazyKey, txn.KindData, []byte("lazy"), parents[0], parents[1],
		start.Add(6*time.Minute), gw.DifficultyFor(lazyAddr))
	if _, err := gw.Submit(ctx, lazy); err != nil {
		t.Fatal(err)
	}
	lazyEvents := func(n *node.FullNode) int {
		count := 0
		for _, ev := range n.Engine().Ledger().Events(lazyAddr) {
			if ev.Behaviour == core.BehaviourLazyTips {
				count++
			}
		}
		return count
	}
	if got := lazyEvents(gw); got != 1 {
		t.Fatalf("gateway recorded %d lazy-tip events, want 1", got)
	}
	for i := 0; i < 30; i++ {
		clk.Advance(10 * time.Second)
		if _, err := honest.PostReading(ctx, []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	dep.flush(t)

	const keep = 10 * time.Minute
	if _, _, err := gw.Compact(keep); err != nil {
		t.Fatal(err)
	}
	m := gw.SnapshotManifest()
	if !m.Epoch.After(lazy.Timestamp) || !m.Epoch.Before(clk.Now().Add(-keep)) {
		t.Fatalf("cold epoch %v, want one between the lazy tip's stamp %v and its attach", m.Epoch, lazy.Timestamp)
	}
	if !gw.Tangle().WasSnapshotted(lazy.ID()) {
		t.Fatal("the compaction kept the lazy tip resident")
	}

	net, err := dep.bus.Join("joiner")
	if err != nil {
		t.Fatal(err)
	}
	joinerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := node.NewFull(node.FullConfig{
		Key:        joinerKey,
		Role:       identity.RoleGateway,
		ManagerPub: dep.mgrKey.Public(),
		Credit:     testParams(),
		Clock:      clk,
		Network:    net,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := joiner.BootstrapFrom(ctx, "gw-0")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "snapshot" || stats.CreditSeeded != 1 {
		t.Fatalf("join stats %+v, want a snapshot join seeding one credit event", stats)
	}
	if got := lazyEvents(joiner); got != 1 {
		t.Errorf("joiner recorded %d lazy-tip events, want 1", got)
	}
	if got, want := joiner.DifficultyFor(lazyAddr), gw.DifficultyFor(lazyAddr); got != want {
		t.Errorf("joiner demands difficulty %d of the lazy device, its peer %d", got, want)
	}
}

// TestBootstrapRoundsStopOnWhatThePullAttached: a gateway joins from a
// peer that has never pruned (an empty manifest) and whose ledger is one
// sync page, while a neighbour relays it one fresh transaction on every
// sync request. The join's rounds stop on what the pull itself attached:
// the first pass attaches the page, the second attaches nothing, and the
// relayed transactions — which grow the ledger on every pass — do not
// keep the join paging.
func TestBootstrapRoundsStopOnWhatThePullAttached(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	net := &scriptedNet{peers: []string{"gateway"}}
	joiner := newRelay(t, mgrKey, net)
	g := genesisIDs(t, joiner)
	page := readings(mgrKey, g, "served", 3)
	manifest, err := json.Marshal(node.SnapshotManifest{})
	if err != nil {
		t.Fatal(err)
	}
	relayed := 0
	net.mu.Lock()
	net.serve = func(_ string, msg gossip.Message) (gossip.Message, error) {
		switch msg.Type {
		case gossip.MsgSnapshotRequest:
			return gossip.Message{Type: gossip.MsgSnapshotResponse, TxData: [][]byte{manifest}}, nil
		case gossip.MsgSyncRequest:
			relayed++
			net.deliver(t, "neighbour", readings(mgrKey, g, fmt.Sprintf("relayed %d", relayed), 1)...)
			reply := syncPages{page}.at(msg.Offset)
			reply.Type = gossip.MsgSyncResponse
			return reply, nil
		}
		return gossip.Message{}, fmt.Errorf("unexpected %v", msg.Type)
	}
	net.mu.Unlock()

	stats, err := joiner.BootstrapFrom(context.Background(), "gateway")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "replay" {
		t.Errorf("join mode %q, want replay", stats.Mode)
	}
	syncs := 0
	for _, req := range net.requests() {
		if req == "gateway sync-request" {
			syncs++
		}
	}
	if syncs > 2 {
		t.Errorf("the join sent %d sync passes for a one-page ledger, want at most 2", syncs)
	}
	for _, tx := range page {
		if !joiner.Tangle().Contains(tx.ID()) {
			t.Error("a served transaction is not in the ledger")
		}
	}
	if want := 2 + len(page) + relayed; joiner.Tangle().Size() != want {
		t.Errorf("ledger holds %d transactions, want %d: genesis, the page and %d relayed", joiner.Tangle().Size(), want, relayed)
	}
}
