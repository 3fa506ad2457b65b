package scenario

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// TestMultiRegionRoam is the sharded topology's scenario cell: two
// regions of two gateways each behind a backbone, devices submitting
// in both regions, one device roaming from region 0 to region 1
// mid-run, and region 0's border gateway crash-rebooting (power-cycled
// disk) after the roam. The pinned assertions, enforced by Finish:
// sharded fixpoint (control namespace global, data namespaces
// region-local), zero guaranteed-durable loss through the crash, and
// zero cross-shard leakage. On top of those, the roam itself must carry
// credit: the destination
// gateway — NOT on the backbone — evaluates the roamer's earned
// credit and demands at most a stranger's difficulty, agreeing with
// the source region's view exactly.
func TestMultiRegionRoam(t *testing.T) {
	seed := scenarioSeed(t)
	ctx := context.Background()
	spec := Spec{
		Name:     "multi-region-roam",
		Regions:  2,
		Gateways: 2,
		Devices:  3,
		PerPhase: 2,
	}
	c, err := NewCluster(spec, seed)
	if err != nil {
		t.Fatalf("[seed %d] build: %v", seed, err)
	}
	defer c.Close()

	// Initial convergence distributes the authorization list to every
	// gateway (backbone to the borders, regional sync inward).
	if _, ok, err := c.Converge(ctx); err != nil || !ok {
		t.Fatalf("[seed %d] initial converge: ok=%v err=%v", seed, ok, err)
	}

	// Two clean rounds of regional traffic build the roamer's history.
	for round := 0; round < 2; round++ {
		if err := c.Traffic(ctx, false); err != nil {
			t.Fatalf("[seed %d] baseline round %d: %v", seed, round, err)
		}
		c.Clk.Advance(time.Second)
		if err := c.ReconcileAll(ctx); err != nil {
			t.Fatalf("[seed %d] reconcile: %v", seed, err)
		}
	}

	// The roamer earned all its credit in region 0.
	roamer := c.Devices[0].Key.Address()
	src := c.Regions[0].Gateways[0].Sup.Node()
	if src == nil {
		t.Fatalf("[seed %d] home border gateway down", seed)
	}
	now := c.Clk.Now()
	srcCredit := src.Engine().Ledger().CreditOf(roamer, now)
	if srcCredit.CrP <= 0 {
		t.Fatalf("[seed %d] roamer earned no positive credit at home: %+v", seed, srcCredit)
	}

	// Two reconcile rounds carry it across: backbone border-to-border,
	// then the regional credit pull inward to the non-border gateway.
	for i := 0; i < 2; i++ {
		if err := c.ReconcileAll(ctx); err != nil {
			t.Fatalf("[seed %d] roam reconcile: %v", seed, err)
		}
	}
	dst := c.Regions[1].Gateways[1].Sup.Node()
	if dst == nil {
		t.Fatalf("[seed %d] destination gateway down", seed)
	}
	dstCredit := dst.Engine().Ledger().CreditOf(roamer, now)
	if dstCredit.CrP <= 0 {
		t.Fatalf("[seed %d] credit not carried to destination region: %+v", seed, dstCredit)
	}
	if math.Abs(srcCredit.Cr-dstCredit.Cr) > 1e-9 ||
		math.Abs(srcCredit.CrP-dstCredit.CrP) > 1e-9 ||
		math.Abs(srcCredit.CrN-dstCredit.CrN) > 1e-9 {
		t.Fatalf("[seed %d] regions disagree on roamed credit: %+v vs %+v", seed, srcCredit, dstCredit)
	}
	// Difficulty travels with the credit: the destination demands at
	// most what it would ask of a total stranger, and exactly what the
	// home region asks.
	stranger := identity.Address(hashutil.Sum([]byte("stranger")))
	if d, s := dst.DifficultyFor(roamer), dst.DifficultyFor(stranger); d > s {
		t.Fatalf("[seed %d] roamer's difficulty %d exceeds a stranger's %d", seed, d, s)
	}
	if d, h := dst.DifficultyFor(roamer), src.DifficultyFor(roamer); d != h {
		t.Fatalf("[seed %d] destination demands %d bits, home %d", seed, d, h)
	}

	// Roam to region 1's NON-border gateway and keep submitting — the
	// roamed history must be honored at admission.
	c.MoveDevice(0, 1, 1)
	if err := c.Traffic(ctx, false); err != nil {
		t.Fatalf("[seed %d] post-roam round: %v", seed, err)
	}
	c.Clk.Advance(time.Second)

	// Crash region 0's border gateway machine, power-cycling its disk.
	// The watchdog restarts it; journal replay must rebuild the same
	// sharded state (data in namespace 1, control in namespace 0).
	c.Regions[0].Gateways[0].Sup.Kill()
	c.Regions[0].Gateways[0].Disk.Reboot()
	if err := c.Regions[0].Gateways[0].Sup.Start(); err != nil {
		t.Fatalf("[seed %d] restart border gateway: %v", seed, err)
	}
	if err := c.WaitReady(); err != nil {
		t.Fatalf("[seed %d] %v", seed, err)
	}
	if err := c.Traffic(ctx, false); err != nil {
		t.Fatalf("[seed %d] closing round: %v", seed, err)
	}
	c.Clk.Advance(time.Second)

	res, err := c.Finish(ctx)
	if err != nil {
		t.Fatalf("[seed %d — rerun with BIOT_SCENARIO_SEED=%d] %v\nrow: %+v", seed, seed, err, res)
	}
	if floor := len(c.Devices) * spec.PerPhase * 2; res.Durable < floor {
		t.Fatalf("[seed %d] only %d durable transactions tracked, floor %d", seed, res.Durable, floor)
	}
	if res.CreditComparisons == 0 {
		t.Fatalf("[seed %d] no credit compared between a region's gateways", seed)
	}
	t.Logf("%s: %d/%d admitted, %d durable (0 lost), fixpoint in %d rounds, control %d, shards %v, restarts %d, credit parity max Δ %.3g over %d cross-node comparisons",
		res.Scenario, res.Admitted, res.Submitted, res.Durable, res.SyncRounds,
		res.TangleSize, res.ShardSizes, res.Restarts, res.MaxCreditDelta, res.CreditComparisons)
}
