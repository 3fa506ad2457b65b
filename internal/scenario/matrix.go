package scenario

import (
	"context"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/attack"
	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/identity"
)

// sizes returns the deployment shape for a tier. TierCI totals 20
// nodes (5 gateways + 14 devices + manager); TierLong totals 111
// (10 + 100 + manager).
func sizes(tier Tier) (gateways, devices, perPhase, stormRounds int) {
	if tier == TierLong {
		return 10, 100, 2, 3
	}
	return 5, 14, 2, 2
}

// base returns a spec skeleton sized for the tier.
func base(tier Tier, name, about string) Spec {
	gw, dev, per, rounds := sizes(tier)
	return Spec{
		Name: name, About: about, Tier: tier,
		Gateways: gw, Devices: dev, PerPhase: per, StormRounds: rounds,
		Link: LinkClean,
	}
}

// authorizeFresh generates n fresh device keys, authorizes them with
// the manager and pushes the updated list to every gateway.
func authorizeFresh(ctx context.Context, c *Cluster, n int) ([]*identity.KeyPair, error) {
	keys := make([]*identity.KeyPair, n)
	for i := range keys {
		key, err := identity.Generate()
		if err != nil {
			return nil, err
		}
		keys[i] = key
		c.Mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
	}
	if _, err := c.Mgr.PublishAuthorization(ctx); err != nil {
		return nil, err
	}
	return keys, c.MgrNode.FlushBroadcast(ctx)
}

// Matrix returns every named scenario sized for the tier. The set
// covers the classes the roadmap demands: lossy links (wlan-congested,
// lpwan-partition), churn and mobility (device-churn-mobility),
// authorization storms (revocation-storm), adversarial campaigns
// (parasite-chain, credit-farm-sybil), clock skew (skewed-clocks), and
// the machine-level soak (machine-carnage).
func Matrix(tier Tier) []Spec {
	return []Spec{
		wlanCongested(tier),
		lpwanPartition(tier),
		deviceChurnMobility(tier),
		revocationStorm(tier),
		parasiteChain(tier),
		creditFarmSybil(tier),
		skewedClocks(tier),
		MachineCarnage(tier),
	}
}

// SpecByName returns the named scenario sized for the tier.
func SpecByName(name string, tier Tier) (Spec, bool) {
	for _, spec := range Matrix(tier) {
		if spec.Name == name {
			return spec, true
		}
	}
	return Spec{}, false
}

// wlanCongested: every gateway uplink degrades to a saturated 802.11
// cell for the storm. Pure link stress — no node ever dies.
func wlanCongested(tier Tier) Spec {
	spec := base(tier, "wlan-congested",
		"all gateway uplinks saturate: 12% loss, jitter, duplicates, reordering")
	spec.Link = LinkWLANCongested
	return spec
}

// lpwanPartition: heavy low-power-WAN loss on every uplink, and one
// gateway drops out of coverage entirely mid-storm.
func lpwanPartition(tier Tier) Spec {
	spec := base(tier, "lpwan-partition",
		"lossy LPWAN uplinks (30% loss) plus one gateway fully out of coverage")
	spec.Link = LinkLPWANLossy
	spec.Inject = func(ctx context.Context, c *Cluster) error {
		c.IsolateGateway(len(c.Gateways) - 1)
		return nil
	}
	spec.Check = func(c *Cluster, r *Result) error {
		r.Notes = fmt.Sprintf("gw-%d isolated through the storm", len(c.Gateways)-1)
		return nil
	}
	return spec
}

// deviceChurnMobility: devices roam between gateways every round while
// one gateway's machine crashes (disk power-cycle included) and comes
// back only at heal time.
func deviceChurnMobility(tier Tier) Spec {
	spec := base(tier, "device-churn-mobility",
		"25% of devices roam gateways each round; one gateway machine crashes and reboots")
	spec.Link = LinkWLANGood
	moved := 0
	spec.Inject = func(ctx context.Context, c *Cluster) error {
		c.KillGateway(0, true)
		return nil
	}
	spec.OnRound = func(ctx context.Context, c *Cluster, round int) error {
		for i := 0; i < len(c.Devices)/4; i++ {
			d := c.RNG.Intn(len(c.Devices))
			c.MoveDevice(d, 0, c.RNG.Intn(len(c.Gateways)))
			moved++
		}
		return nil
	}
	spec.Check = func(c *Cluster, r *Result) error {
		if moved == 0 {
			return fmt.Errorf("no device ever roamed")
		}
		r.Notes = fmt.Sprintf("%d roam events; gw-0 crashed with disk reboot", moved)
		return nil
	}
	return spec
}

// revocationStorm: the manager churns the authorization list through
// the storm — a rotating batch of devices is revoked each round and
// reinstated the next. Revoked devices' submissions must be rejected
// at the gate; after the final reinstatement everything must flow
// again. The storm lives in the authorization plane, so the link stays
// clean: the Check pins the EXACT rejection count, which is only sound
// when every revocation broadcast reaches every gateway before that
// round's traffic (a lossy uplink can defer an authorization
// transaction behind a dropped parent and let a revoked submission
// slip through the stale gate).
func revocationStorm(tier Tier) Spec {
	spec := base(tier, "revocation-storm",
		"rotating batches of devices revoked and reinstated through the data authority")
	spec.Link = LinkClean
	var revoked []int
	var expectRejects int64
	publish := func(ctx context.Context, c *Cluster) error {
		if _, err := c.Mgr.PublishAuthorization(ctx); err != nil {
			return err
		}
		return c.MgrNode.FlushBroadcast(ctx)
	}
	spec.OnRound = func(ctx context.Context, c *Cluster, round int) error {
		for _, d := range revoked {
			c.Mgr.AuthorizeDevice(c.Devices[d].Key.Public(), c.Devices[d].Key.BoxPublic())
		}
		batch := len(c.Devices) / 4
		if batch < 1 {
			batch = 1
		}
		revoked = revoked[:0]
		for i := 0; i < batch; i++ {
			d := (round*batch + i) % len(c.Devices)
			revoked = append(revoked, d)
			c.Mgr.DeauthorizeDevice(c.Devices[d].Key.Public())
		}
		expectRejects += int64(batch * c.Spec.PerPhase)
		return publish(ctx, c)
	}
	spec.Heal = func(ctx context.Context, c *Cluster) error {
		for _, d := range revoked {
			c.Mgr.AuthorizeDevice(c.Devices[d].Key.Public(), c.Devices[d].Key.BoxPublic())
		}
		revoked = revoked[:0]
		return publish(ctx, c)
	}
	spec.Check = func(c *Cluster, r *Result) error {
		if r.Unauthorized != expectRejects {
			return fmt.Errorf("authorization gate rejected %d submissions, want exactly %d",
				r.Unauthorized, expectRejects)
		}
		// The evidence-at-admission gate makes relay admission
		// order-independent, so a storm of revocations and
		// reinstatements must produce ZERO relay-path rejects — the old
		// live-registry gate flaked here (~8%/run) when a revocation
		// list overtook an older still-valid reading in the gossip
		// order and orphaned the reading's descendants.
		if r.StaleAuthRejects != 0 {
			return fmt.Errorf("%d relay-path authorization rejects; the evidence gate requires 0",
				r.StaleAuthRejects)
		}
		mgrSeq := c.MgrNode.Registry().Seq()
		for i, n := range c.fulls() {
			if seq := n.Registry().Seq(); seq != mgrSeq {
				return fmt.Errorf("full node %d registry at list seq %d, manager at %d (orphaned auth list)",
					i, seq, mgrSeq)
			}
			for d, dev := range c.Devices {
				if !n.Registry().IsAuthorizedDevice(dev.Key.Address()) {
					return fmt.Errorf("device %d still revoked on full node %d after the storm", d, i)
				}
			}
			if q := n.QuarantineLen(); q != 0 {
				return fmt.Errorf("full node %d still holds %d quarantined transactions after healing", i, q)
			}
		}
		r.Notes = fmt.Sprintf("%d revocation rejects, 0 stale-gate, all registries at seq %d, all reinstated",
			r.Unauthorized, mgrSeq)
		return nil
	}
	return spec
}

// parasiteChain: an authorized insider mounts the parasite-chain
// double spend (a conflicting transfer buried under a self-approving
// side chain that evades stale-anchor detection). The defence under
// test: the conflict event lands, the attacker's difficulty rises
// above honest devices', and honest traffic suffers zero loss.
func parasiteChain(tier Tier) Spec {
	spec := base(tier, "parasite-chain",
		"insider grows a self-approving side chain to bury a conflicting spend")
	var atkAddr identity.Address
	spec.Inject = func(ctx context.Context, c *Cluster) error {
		keys, err := authorizeFresh(ctx, c, 1)
		if err != nil {
			return err
		}
		atkAddr = keys[0].Address()
		atk, err := attack.New(attack.Config{
			Key: keys[0], Gateway: c.Gateways[0].Sup.Gateway(), Clock: c.Clk,
		})
		if err != nil {
			return err
		}
		v1, _ := identity.Generate()
		v2, _ := identity.Generate()
		res, err := atk.ParasiteChain(ctx, v1.Address(), v2.Address(), 10, 0, 6)
		if err != nil {
			return fmt.Errorf("parasite campaign: %w", err)
		}
		if res.Accepted == 0 {
			return fmt.Errorf("parasite chain grew no links: %+v", res)
		}
		return nil
	}
	spec.Check = func(c *Cluster, r *Result) error {
		ref := c.fulls()[0]
		if r.MaliciousEvents == 0 {
			return fmt.Errorf("no behaviour events recorded for a double-spending insider")
		}
		atkDiff := ref.DifficultyFor(atkAddr)
		honDiff := ref.DifficultyFor(c.Devices[0].Key.Address())
		if atkDiff <= honDiff {
			return fmt.Errorf("attacker difficulty %d not above honest %d", atkDiff, honDiff)
		}
		r.Notes = fmt.Sprintf("attacker difficulty %d vs honest %d", atkDiff, honDiff)
		return nil
	}
	return spec
}

// creditFarmSybil: an authorized colluder ring farms positive credit
// with micro-transactions while a Sybil flood of fabricated identities
// hammers another gateway. The gate must reject every Sybil; the
// farmers' difficulty may fall but never below the clamp floor; and
// the credit window must stay oracle-exact throughout.
func creditFarmSybil(tier Tier) Spec {
	spec := base(tier, "credit-farm-sybil",
		"authorized ring farms credit for cheap PoW while unauthorized Sybils flood")
	colluders := 3
	if tier == TierLong {
		colluders = 5
	}
	var farm attack.CreditFarmResult
	var sybil attack.SybilResult
	spec.Inject = func(ctx context.Context, c *Cluster) error {
		keys, err := authorizeFresh(ctx, c, colluders)
		if err != nil {
			return err
		}
		if farm, err = attack.CreditFarm(ctx, c.Gateways[0].Sup.Gateway(), nil, c.Clk, keys, 4); err != nil {
			return fmt.Errorf("credit farm: %w", err)
		}
		gw := c.Gateways[1%len(c.Gateways)].Sup.Gateway()
		if sybil, err = attack.SybilFlood(ctx, gw, nil, c.Clk, 10); err != nil {
			return fmt.Errorf("sybil flood: %w", err)
		}
		return nil
	}
	spec.Check = func(c *Cluster, r *Result) error {
		if sybil.Accepted != 0 {
			return fmt.Errorf("%d Sybil submissions crossed the authorization gate", sybil.Accepted)
		}
		if farm.Accepted != farm.Submitted {
			return fmt.Errorf("authorized farm traffic rejected: %+v", farm)
		}
		if farm.EndDifficulty > farm.StartDifficulty {
			return fmt.Errorf("farming raised difficulty %d → %d", farm.StartDifficulty, farm.EndDifficulty)
		}
		if floor := c.fulls()[0].Engine().Ledger().Params().MinDifficulty; farm.EndDifficulty < floor {
			return fmt.Errorf("difficulty %d fell below clamp floor %d", farm.EndDifficulty, floor)
		}
		r.Notes = fmt.Sprintf("sybils 0/%d admitted; farm difficulty %d→%d",
			sybil.Identities, farm.StartDifficulty, farm.EndDifficulty)
		return nil
	}
	return spec
}

// skewedClocks: half the gateways jump 30 s forward, half 30 s
// backward, on a mildly lossy link. The pinned assertions are the
// whole point: convergence, zero loss and oracle-exact credit must
// hold while peers disagree about the time by a minute (the backward
// jumpers also exercise the monotonic clamp and the credit window's
// rewind path).
func skewedClocks(tier Tier) Spec {
	spec := base(tier, "skewed-clocks",
		"gateway clocks drift ±30s during the storm; skew persists after healing")
	spec.Link = LinkWLANGood
	spec.SkewJump = 30 * time.Second
	return spec
}

// MachineCarnage is the chaos soak expressed as a scenario (the
// node-level soak test consumes it): one gateway machine dies with a
// disk power-cycle, another's disk poisons its next fsync (the
// watchdog must notice and restart it), two more gossip through heavy
// composed faults, and one is partitioned from the bus entirely.
// Exported so the soak test can run exactly this cell under its
// legacy BIOT_CHAOS_SEED.
func MachineCarnage(tier Tier) Spec {
	spec := base(tier, "machine-carnage",
		"machine crash + disk reboot, fsync poison, heavy gossip faults, full partition")
	spec.Inject = func(ctx context.Context, c *Cluster) error {
		c.KillGateway(0, true)
		c.Gateways[1].Disk.InjectSyncError(nil)
		c.Gateways[2].SetFaults(chaos.NetFaults{
			DropProb: 0.2, DupProb: 0.2, DelayMax: 200 * time.Microsecond, ReorderProb: 0.1,
		})
		c.Gateways[3%len(c.Gateways)].SetFaults(chaos.NetFaults{
			DropProb: 0.3, DupProb: 0.1, DelayMax: 300 * time.Microsecond,
		})
		c.IsolateGateway(3 % len(c.Gateways))
		return nil
	}
	spec.Heal = func(ctx context.Context, c *Cluster) error {
		// The poisoned journal heals through the watchdog, not through
		// HealAll: insist on the restart so the closing phase runs
		// against a genuinely recovered node.
		sup := c.Gateways[1].Sup
		deadline := time.Now().Add(10 * time.Second)
		for sup.Restarts() == 0 || !sup.Ready() {
			if time.Now().After(deadline) {
				return fmt.Errorf("watchdog never healed gw-1's poisoned journal: %+v", sup.Health())
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	spec.Check = func(c *Cluster, r *Result) error {
		if r.Restarts < 1 {
			return fmt.Errorf("watchdog recorded no restarts despite the fsync poison")
		}
		r.Notes = fmt.Sprintf("%d watchdog restarts; gw-0 rebooted; gw-%d partitioned",
			r.Restarts, 3%len(c.Gateways))
		return nil
	}
	return spec
}
