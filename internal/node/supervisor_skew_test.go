package node_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/node"
)

// TestSupervisorWatchdogUnderClockSkew runs two supervised gateways
// whose clocks drift ±30s off the manager's, poisons one journal so
// the watchdog must restart it, and asserts the restarted node
// reconverges with the skewed cluster: identical tangles on every
// node.
// The watchdog runs on the process's time (WatchInterval is a time.Ticker,
// virtual inside the test's bubble), not on the node's clock, so a skewed
// node clock must not break restart/backoff.
func TestSupervisorWatchdogUnderClockSkew(t *testing.T) {
	inBubble(t, testSupervisorWatchdogUnderClockSkew)
}
func testSupervisorWatchdogUnderClockSkew(t *testing.T) {
	ctx := context.Background()
	base := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	dep := newMultiNode(t, 0, base)

	const skew = 30 * time.Second
	type skewedGateway struct {
		sup *node.Supervisor
		fs  *chaos.MemFS
		clk *chaos.SkewClock
	}
	var gws []skewedGateway
	for i, offset := range []time.Duration{skew, -skew} {
		fs := chaos.NewMemFS(int64(100 + i))
		clk := chaos.NewSkewClock(base, 0, int64(200+i))
		clk.Jump(offset)
		if got := clk.Offset(); got != offset {
			t.Fatalf("gateway %d offset = %v, want %v", i, got, offset)
		}
		cfg := supervisedGatewayConfig(t, dep.bus, fmt.Sprintf("gw-skew-%d", i), dep.mgrKey.Public(), fs, clk)
		cfg.WatchInterval = 5 * time.Millisecond
		sup, err := node.NewSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Start(); err != nil {
			t.Fatal(err)
		}
		defer sup.Stop(ctx)
		gws = append(gws, skewedGateway{sup: sup, fs: fs, clk: clk})
	}

	// One device per skewed gateway, plus traffic before the fault.
	var devices []*node.LightNode
	for _, gw := range gws {
		device := newTestDevice(t, gw.sup.Gateway(), base)
		dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
		devices = append(devices, device)
	}
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dep.mgr.Node().FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}
	post := func(tag string) {
		t.Helper()
		for i, device := range devices {
			if _, err := device.PostReading(ctx, []byte(fmt.Sprintf("%s d%d", tag, i))); err != nil {
				t.Fatalf("%s device %d: %v", tag, i, err)
			}
		}
		base.Advance(time.Second)
	}
	post("pre-fault")

	// Poison the fast gateway's journal: the next append's fsync fails,
	// the node goes unhealthy, and the watchdog must restart
	// it even though the node's own clock runs 30s in the future.
	gws[0].fs.InjectSyncError(nil)
	if _, err := devices[0].PostReading(ctx, []byte("poisoning")); err != nil {
		t.Fatal(err)
	}
	waitRestarted(t, gws[0].sup)
	if h := gws[0].sup.Health(); h.State != "running" {
		t.Fatalf("restarted gateway health = %+v, want running", h)
	}
	if gws[1].sup.Restarts() != 0 {
		t.Fatalf("healthy gateway restarted %d times", gws[1].sup.Restarts())
	}

	// Traffic after the restart, then pull-sync the cluster to a
	// fixpoint: the replayed+restarted node and the −30s node must both
	// hold the same tangle as the manager.
	post("post-restart")
	fulls := []*node.FullNode{dep.mgr.Node()}
	for _, gw := range gws {
		fulls = append(fulls, gw.sup.Node())
	}
	for _, n := range fulls {
		if err := n.FlushBroadcast(ctx); err != nil {
			t.Fatal(err)
		}
	}
	converged := false
	for round := 0; round < 20 && !converged; round++ {
		for _, n := range fulls {
			n.SyncAll(ctx)
		}
		converged = true
		ref := tangleIDs(fulls[0])
		for _, n := range fulls[1:] {
			got := tangleIDs(n)
			if len(got) != len(ref) {
				converged = false
				break
			}
			for id := range ref {
				if !got[id] {
					converged = false
					break
				}
			}
		}
	}
	if !converged {
		t.Fatal("skewed cluster never reconverged after the watchdog restart")
	}
}

func tangleIDs(n *node.FullNode) map[string]bool {
	set := make(map[string]bool)
	for _, tr := range n.Tangle().ExportRange(0, n.Tangle().Size()) {
		set[tr.ID().String()] = true
	}
	return set
}
