package node_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
)

// region is one shard's gateway cluster in the two-tier test topology.
type region struct {
	shard    uint32
	gateways []*node.FullNode
	devices  []*node.LightNode
}

// shardIDSet collects one namespace's resident IDs as a set (attachment
// order legitimately differs between peers; convergence is on the set).
func shardIDSet(n *node.FullNode, shard uint32) map[hashutil.Hash]struct{} {
	ids := n.Tangle().OrderedShardIDs(shard, 0, 1<<30)
	set := make(map[hashutil.Hash]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

func sameIDSet(a, b map[hashutil.Hash]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			return false
		}
	}
	return true
}

// TestShardedRegionsConvergeWithoutLeakage drives the full two-tier
// topology: a manager on the backbone, two regions of two gateways
// each (shards 1 and 2) on their own regional buses, with one gateway
// per region also attached to the backbone. Light-node traffic
// interleaves across both gateways of both regions while regional
// paged syncs and backbone reconciliation rounds run in between. The
// properties:
//
//   - the control namespace (0) converges to the same set everywhere,
//     even though it grows past one sync page;
//   - each region's data namespace converges across that region's
//     gateways;
//   - no data namespace ever leaks across the backbone — region A
//     holds nothing of shard 2, region B nothing of shard 1, the
//     manager nothing of either;
//   - credit earned in region A is carried to region B's border
//     gateway by the digest exchange, and a full two-way exchange
//     makes the border gateways agree on it exactly.
func TestShardedRegionsConvergeWithoutLeakage(t *testing.T) {
	ctx := context.Background()
	backbone := gossip.NewBus()
	t.Cleanup(func() { _ = backbone.Close() })

	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mgrNet, err := backbone.Join("manager")
	if err != nil {
		t.Fatal(err)
	}
	mgrFull, err := node.NewFull(node.FullConfig{
		Key:        mgrKey,
		Role:       identity.RoleManager,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Network:    mgrNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(mgrFull)
	if err != nil {
		t.Fatal(err)
	}

	regions := make([]*region, 2)
	for r := range regions {
		regions[r] = &region{shard: uint32(r + 1)}
	}
	for r, reg := range regions {
		bus := gossip.NewBus()
		t.Cleanup(func() { _ = bus.Close() })
		for g := 0; g < 2; g++ {
			key, err := identity.Generate()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("gw-%d-%d", r, g)
			net, err := bus.Join(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := node.FullConfig{
				Key:        key,
				Role:       identity.RoleGateway,
				ManagerPub: mgrKey.Public(),
				Credit:     testParams(),
				Network:    net,
				ShardID:    reg.shard,
			}
			if g == 0 {
				// The region's border gateway also joins the backbone.
				bb, err := backbone.Join(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Backbone = bb
			}
			gw, err := node.NewFull(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg.gateways = append(reg.gateways, gw)
			dev := newTestDevice(t, gw, nil)
			mgr.AuthorizeDevice(dev.Key().Public(), dev.Key().BoxPublic())
			reg.devices = append(reg.devices, dev)
		}
	}
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	quiesce := func() {
		if err := mgrFull.FlushBroadcast(ctx); err != nil {
			t.Fatal(err)
		}
		for _, reg := range regions {
			for _, gw := range reg.gateways {
				if err := gw.FlushBroadcast(ctx); err != nil {
					t.Fatal(err)
				}
			}
			reg.gateways[0].Reconcile(ctx)
			for _, gw := range reg.gateways {
				gw.SyncAll(ctx)
			}
		}
	}
	quiesce()

	// Interleave light-node traffic across both gateways of both
	// regions, with sync/reconcile rounds mixed in mid-stream.
	for i := 0; i < 24; i++ {
		for _, reg := range regions {
			dev := reg.devices[i%len(reg.devices)]
			if _, err := dev.PostReading(ctx, []byte(fmt.Sprintf("r%d-s%d", i, reg.shard))); err != nil {
				t.Fatalf("shard %d reading %d: %v", reg.shard, i, err)
			}
		}
		if i%6 == 5 {
			quiesce()
		}
	}

	// Grow the control namespace past one sync page (syncPageSize=256)
	// so backbone reconciliation demonstrably pages.
	for i := 0; i < 280; i++ {
		if _, err := mgr.PublishAuthorization(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Two quiesce rounds: the first ships state between border
	// gateways, the second settles anything the first round created.
	quiesce()
	quiesce()

	fulls := []*node.FullNode{mgrFull}
	for _, reg := range regions {
		fulls = append(fulls, reg.gateways...)
	}

	// Control namespace: identical everywhere, and larger than a page.
	ns0 := shardIDSet(mgrFull, 0)
	if len(ns0) <= 256 {
		t.Fatalf("control namespace has %d vertices; test must exceed one sync page", len(ns0))
	}
	for i, n := range fulls {
		if got := shardIDSet(n, 0); !sameIDSet(ns0, got) {
			t.Fatalf("node %d control namespace diverged: %d vs %d vertices", i, len(got), len(ns0))
		}
	}

	// Data namespaces: converged inside a region, absent outside it.
	for r, reg := range regions {
		want := shardIDSet(reg.gateways[0], reg.shard)
		if len(want) == 0 {
			t.Fatalf("region %d admitted no data traffic", r)
		}
		if !sameIDSet(want, shardIDSet(reg.gateways[1], reg.shard)) {
			t.Fatalf("region %d gateways diverged on shard %d", r, reg.shard)
		}
		other := regions[1-r].shard
		for g, gw := range reg.gateways {
			if n := gw.Tangle().ShardSize(other); n != 0 {
				t.Fatalf("region %d gateway %d leaked %d vertices of shard %d", r, g, n, other)
			}
		}
		if n := mgrFull.Tangle().ShardSize(reg.shard); n != 0 {
			t.Fatalf("manager leaked %d vertices of shard %d", n, reg.shard)
		}
	}

	// The backbone demonstrably paged the >1-page control namespace.
	for r, reg := range regions {
		if pages := reg.gateways[0].CountersView().BackboneSyncPages.Value(); pages < 2 {
			t.Fatalf("region %d border gateway pulled %d backbone pages, want >= 2", r, pages)
		}
	}

	// Roaming credit: region A's device earned all its credit in region
	// A, yet region B's border gateway now evaluates a positive CrP for
	// it, and the two border gateways agree exactly after the full
	// two-way exchange.
	now := time.Now()
	roamer := regions[0].devices[0].Key().Address()
	a := regions[0].gateways[0].Engine().Ledger().CreditOf(roamer, now)
	b := regions[1].gateways[0].Engine().Ledger().CreditOf(roamer, now)
	if b.CrP <= 0 {
		t.Fatalf("roamed credit not carried to region B: %+v", b)
	}
	if math.Abs(a.Cr-b.Cr) > 1e-9 || math.Abs(a.CrP-b.CrP) > 1e-9 || math.Abs(a.CrN-b.CrN) > 1e-9 {
		t.Fatalf("border gateways disagree on roamed credit: %+v vs %+v", a, b)
	}
}
