package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// GatewayHandle bundles one supervised gateway with its fault
// injectors: the in-memory disk its journal lives on, the skewable
// clock it stamps with, and the faulty network it gossips through
// (rebuilt by the supervisor's Build on every restart, re-applying the
// currently desired fault mix so a restart mid-storm stays in the
// storm).
type GatewayHandle struct {
	Name string
	// Region indexes the gateway's region in Cluster.Regions.
	Region int
	Key    *identity.KeyPair
	Disk   *chaos.MemFS
	Clock  *chaos.SkewClock
	Sup    *node.Supervisor

	mu      sync.Mutex
	fn      *chaos.FaultyNetwork
	desired chaos.NetFaults
}

// SetFaults applies a fault mix to the gateway's outbound gossip, now
// and across restarts.
func (g *GatewayHandle) SetFaults(f chaos.NetFaults) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.desired = f
	if g.fn != nil {
		g.fn.SetFaults(f)
	}
}

// HealFaults clears the gateway's gossip faults.
func (g *GatewayHandle) HealFaults() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.desired = chaos.NetFaults{}
	if g.fn != nil {
		g.fn.Heal()
	}
}

func (g *GatewayHandle) setNetwork(fn *chaos.FaultyNetwork) chaos.NetFaults {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fn = fn
	return g.desired
}

// RegionHandle is one region of the deployment: a gateway cluster on
// its own gossip fabric, admitting into its own data namespace.
type RegionHandle struct {
	// Shard is the region's data namespace: region index + 1 in a
	// two-tier deployment, 0 (shared with the control plane) in a flat
	// one.
	Shard uint32
	// Bus is the region-local gossip fabric.
	Bus *gossip.Bus
	// Gateways are the region's supervised gateways; in a two-tier
	// deployment index 0 is the border gateway (also on the backbone).
	Gateways []*GatewayHandle
}

// DeviceHandle is one IoT device bound to the cluster through a
// roaming gateway delegate, so scenarios can move it between gateways
// and regions (mobility) without rebuilding the light node.
type DeviceHandle struct {
	Light *node.LightNode
	Key   *identity.KeyPair
	roam  *roamingGateway
}

// roamingGateway routes a device's gateway calls to whichever gateway
// the scenario currently binds it to, through that gateway's
// supervisor delegate (so restarts re-resolve too).
type roamingGateway struct {
	at atomic.Pointer[GatewayHandle]
}

var _ node.Gateway = (*roamingGateway)(nil)

func (r *roamingGateway) gw() node.Gateway { return r.at.Load().Sup.Gateway() }

func (r *roamingGateway) TipsForApproval() (hashutil.Hash, hashutil.Hash, error) {
	return r.gw().TipsForApproval()
}
func (r *roamingGateway) DifficultyFor(addr identity.Address) int {
	return r.gw().DifficultyFor(addr)
}
func (r *roamingGateway) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	return r.gw().GetTransaction(id)
}
func (r *roamingGateway) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	return r.gw().Submit(ctx, t)
}
func (r *roamingGateway) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	return r.gw().TransactionsByKind(kind, offset)
}

// Cluster is one running deployment under a scenario: a stable manager
// full node plus supervised gateway full nodes journaling to fault-
// injectable disks and gossiping through per-gateway faulty networks,
// with light-node devices bound through roaming delegates. All nodes
// share one virtual clock; per-gateway skew layers on top of it.
//
// The deployment is a list of regions. In the two-tier topology
// (DESIGN.md §16, Spec.Regions ≥ 1) the manager and each region's
// border gateway sit on a backbone bus and every region admits data
// into its own tangle namespace. A flat deployment (Spec.Regions 0) is
// the one-region case: the region's namespace is 0, the manager sits on
// the region's bus, and there is no backbone.
type Cluster struct {
	Spec Spec
	Seed int64

	Clk *clock.Virtual
	// Backbone is the inter-region fabric; nil in a flat deployment.
	Backbone *gossip.Bus
	Mgr      *node.Manager
	MgrNode  *node.FullNode
	Regions  []*RegionHandle
	// Gateways is every region's gateways, flattened in region order.
	Gateways []*GatewayHandle
	Devices  []*DeviceHandle

	// RNG drives the harness's own schedule choices (churn victims,
	// roam targets); derived from the scenario seed.
	RNG *rand.Rand

	phase atomic.Int64

	// mustHave maps a guaranteed-durable transaction ID to the region
	// it was admitted in — the region whose namespace must retain it.
	mustMu   sync.Mutex
	mustHave map[string]int

	submitted    atomic.Int64
	admitted     atomic.Int64
	submitErrors atomic.Int64
	unauthorized atomic.Int64

	isolatedMu sync.Mutex
	isolated   map[*GatewayHandle]bool
}

// scenarioParams are the default consensus parameters for scenario
// runs: trivial base PoW so hundreds of proofs mine instantly, with a
// clamp ceiling low enough that a punished attacker's raised demand
// stays mineable in-test.
func scenarioParams() core.Params {
	p := core.DefaultParams()
	p.InitialDifficulty = 4
	p.MinDifficulty = 1
	p.MaxDifficulty = 12
	return p
}

// NewCluster builds and starts the deployment for a spec: the manager,
// Gateways supervised gateways and Devices devices per region, all
// devices authorized and the initial list published.
func NewCluster(spec Spec, seed int64) (*Cluster, error) {
	params := spec.Params
	if params == nil {
		params = scenarioParams
	}
	c := &Cluster{
		Spec:     spec,
		Seed:     seed,
		Clk:      clock.NewVirtual(time.Unix(1_700_000_000, 0)),
		RNG:      rand.New(rand.NewSource(seed ^ 0x5CE4A210)),
		mustHave: make(map[string]int),
		isolated: make(map[*GatewayHandle]bool),
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	regions, firstShard := 1, uint32(0)
	if spec.Regions > 0 {
		regions, firstShard = spec.Regions, 1
		c.Backbone = gossip.NewBus()
	}
	for r := 0; r < regions; r++ {
		c.Regions = append(c.Regions, &RegionHandle{Shard: firstShard + uint32(r), Bus: gossip.NewBus()})
	}
	mgrBus := c.Backbone
	if mgrBus == nil {
		mgrBus = c.Regions[0].Bus
	}

	mgrKey, err := identity.Generate()
	if err != nil {
		return fail(err)
	}
	mgrNet, err := mgrBus.Join("mgr")
	if err != nil {
		return fail(err)
	}
	c.MgrNode, err = node.NewFull(node.FullConfig{
		Key:        mgrKey,
		Role:       identity.RoleManager,
		ManagerPub: mgrKey.Public(),
		Credit:     params(),
		Tangle:     spec.Tangle,
		Clock:      c.Clk,
		Network:    mgrNet,
	})
	if err != nil {
		return fail(fmt.Errorf("manager node: %w", err))
	}
	c.Mgr, err = node.NewManager(c.MgrNode)
	if err != nil {
		return fail(err)
	}

	for r, reg := range c.Regions {
		for gi := 0; gi < spec.Gateways; gi++ {
			gwKey, err := identity.Generate()
			if err != nil {
				return fail(err)
			}
			idx := int64(r*100 + gi)
			g := &GatewayHandle{
				Name:   fmt.Sprintf("gw-%d", len(c.Gateways)),
				Region: r,
				Key:    gwKey,
				Disk:   chaos.NewMemFS(seed + idx),
				Clock:  chaos.NewSkewClock(c.Clk, 0, seed+1000+idx),
			}
			border := gi == 0 && c.Backbone != nil
			netSeed := seed + 100 + idx
			sup, err := node.NewSupervisor(node.SupervisorConfig{
				Build: func() (*node.FullNode, error) {
					peer, err := reg.Bus.Join(g.Name)
					if err != nil {
						return nil, err
					}
					fn := chaos.NewFaultyNetwork(peer, chaos.NetFaults{}, netSeed)
					fn.SetFaults(g.setNetwork(fn))
					cfg := node.FullConfig{
						Key:        gwKey,
						Role:       identity.RoleGateway,
						ManagerPub: mgrKey.Public(),
						Credit:     params(),
						Tangle:     spec.Tangle,
						Clock:      g.Clock,
						Network:    fn,
						ShardID:    reg.Shard,
					}
					if border {
						bb, err := c.Backbone.Join(g.Name)
						if err != nil {
							fn.Close()
							return nil, err
						}
						cfg.Backbone = bb
					}
					n, err := node.NewFull(cfg)
					if err != nil {
						fn.Close()
						return nil, err
					}
					return n, nil
				},
				PersistPath:   g.Name + ".journal",
				FS:            g.Disk,
				WatchInterval: 10 * time.Millisecond,
			})
			if err != nil {
				return fail(err)
			}
			g.Sup = sup
			if err := sup.Start(); err != nil {
				return fail(fmt.Errorf("start %s: %v", g.Name, err))
			}
			reg.Gateways = append(reg.Gateways, g)
			c.Gateways = append(c.Gateways, g)
		}

		for d := 0; d < spec.Devices; d++ {
			key, err := identity.Generate()
			if err != nil {
				return fail(err)
			}
			roam := &roamingGateway{}
			roam.at.Store(reg.Gateways[d%spec.Gateways])
			light, err := node.NewLight(node.LightConfig{
				Key:     key,
				Gateway: roam,
				Clock:   c.Clk,
			})
			if err != nil {
				return fail(err)
			}
			c.Devices = append(c.Devices, &DeviceHandle{Light: light, Key: key, roam: roam})
			c.Mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
		}
	}
	ctx := context.Background()
	if _, err := c.Mgr.PublishAuthorization(ctx); err != nil {
		return fail(fmt.Errorf("publish authorization: %w", err))
	}
	if err := c.MgrNode.FlushBroadcast(ctx); err != nil {
		return fail(err)
	}
	return c, nil
}

// Close tears the deployment down.
func (c *Cluster) Close() {
	ctx := context.Background()
	for _, g := range c.Gateways {
		if g.Sup != nil {
			_ = g.Sup.Stop(ctx)
		}
	}
	if c.MgrNode != nil {
		_ = c.MgrNode.Close()
	}
	for _, reg := range c.Regions {
		_ = reg.Bus.Close()
	}
	if c.Backbone != nil {
		_ = c.Backbone.Close()
	}
}

// MoveDevice roams device d to (region, gateway): IoT mobility across
// coverage areas and administrative regions. Call between rounds.
func (c *Cluster) MoveDevice(d, region, gateway int) {
	c.Devices[d].roam.at.Store(c.Regions[region].Gateways[gateway])
}

// KillGateway crashes gateway i's machine: the node dies without
// draining and, when reboot is set, the disk power-cycles too (the
// unsynced page cache tears away).
func (c *Cluster) KillGateway(i int, reboot bool) {
	c.Gateways[i].Sup.Kill()
	if reboot {
		c.Gateways[i].Disk.Reboot()
	}
}

// IsolateGateway partitions gateway i from every other node on its
// region's bus; HealAll lifts it.
func (c *Cluster) IsolateGateway(i int) {
	g := c.Gateways[i]
	c.Regions[g.Region].Bus.Isolate(g.Name)
	c.isolatedMu.Lock()
	c.isolated[g] = true
	c.isolatedMu.Unlock()
}

// Traffic runs one round: every device posts PerPhase readings
// concurrently to its current gateway. With faultsActive, submission
// failures are the point and are only counted; otherwise they abort the
// round. A transaction enters the cluster's zero-loss obligation —
// tagged with the region it was admitted in — iff its submit succeeded
// on a node instance whose journal was still verifiably healthy
// afterwards (poison is sticky per instance, so healthy-after proves
// the append fsynced).
func (c *Cluster) Traffic(ctx context.Context, faultsActive bool) error {
	phase := c.phase.Add(1)
	var wg sync.WaitGroup
	errs := make(chan error, len(c.Devices))
	for d, dev := range c.Devices {
		wg.Add(1)
		go func(d int, dev *DeviceHandle) {
			defer wg.Done()
			for i := 0; i < c.Spec.PerPhase; i++ {
				g := dev.roam.at.Load()
				before := g.Sup.Node()
				c.submitted.Add(1)
				res, err := dev.Light.PostReading(ctx,
					[]byte(fmt.Sprintf("%s p%d d%d i%d", c.Spec.Name, phase, d, i)))
				if err != nil {
					c.submitErrors.Add(1)
					if errors.Is(err, node.ErrUnauthorizedDevice) {
						c.unauthorized.Add(1)
					}
					if !faultsActive {
						errs <- fmt.Errorf("clean phase %d device %d: %w", phase, d, err)
						return
					}
					continue
				}
				c.admitted.Add(1)
				after := g.Sup.Node()
				if before != nil && before == after && after.JournalHealthy() {
					c.mustMu.Lock()
					c.mustHave[res.Info.ID.String()] = g.Region
					c.mustMu.Unlock()
				}
			}
		}(d, dev)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	return nil
}

// HealAll returns the deployment to a fault-free topology: gossip
// faults clear, partitions lift, crashed gateways restart, and every
// supervisor must report ready within the deadline (watchdog healings
// included).
func (c *Cluster) HealAll(ctx context.Context) error {
	c.isolatedMu.Lock()
	for g := range c.isolated {
		c.Regions[g.Region].Bus.Restore(g.Name)
	}
	c.isolated = make(map[*GatewayHandle]bool)
	c.isolatedMu.Unlock()
	for _, g := range c.Gateways {
		g.HealFaults()
		if err := g.Sup.Start(); err != nil && !errors.Is(err, node.ErrSupervisorRunning) {
			return fmt.Errorf("restart %s: %w", g.Name, err)
		}
	}
	return c.WaitReady()
}

// WaitReady blocks until every supervisor reports ready (watchdog
// restarts included) or the deadline passes.
func (c *Cluster) WaitReady() error {
	deadline := time.Now().Add(15 * time.Second)
	for _, g := range c.Gateways {
		for !g.Sup.Ready() {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never became ready: %+v", g.Name, g.Sup.Health())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// staleAuthRejects sums the relay-path authorization-reject counter
// across every live full node.
func (c *Cluster) staleAuthRejects() int64 {
	var total int64
	for _, n := range c.fulls() {
		total += n.CountersView().StaleAuthRejects.Value()
	}
	return total
}

// fulls returns every live full node: manager first, then gateways in
// region order.
func (c *Cluster) fulls() []*node.FullNode {
	out := []*node.FullNode{c.MgrNode}
	for _, g := range c.Gateways {
		if n := g.Sup.Node(); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// shardSet collects one namespace's resident IDs on a node.
func shardSet(n *node.FullNode, shard uint32) map[string]bool {
	set := make(map[string]bool)
	for _, id := range n.Tangle().OrderedShardIDs(shard, 0, math.MaxInt32) {
		set[id.String()] = true
	}
	return set
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// flush drains every live node's fan-out pipeline.
func (c *Cluster) flush(ctx context.Context) error {
	for _, n := range c.fulls() {
		if err := n.FlushBroadcast(ctx); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	return nil
}

// ReconcileAll flushes every node's fan-out, then runs one Reconcile
// round on every gateway (border gateways pull the backbone, every
// gateway spreads credit regionally).
func (c *Cluster) ReconcileAll(ctx context.Context) error {
	if err := c.flush(ctx); err != nil {
		return err
	}
	for _, g := range c.Gateways {
		if n := g.Sup.Node(); n != nil {
			n.Reconcile(ctx)
		}
	}
	return nil
}

// Converge drives regional pull-syncs — and, behind a backbone,
// reconciliation — to the sharded fixpoint: the control namespace
// identical on every full node, and each region's data namespace
// identical across that region's gateways. In a flat deployment the one
// region's namespace IS the control namespace, so the fixpoint is
// "identical tangle everywhere". It returns the rounds taken and
// whether the fixpoint was reached.
func (c *Cluster) Converge(ctx context.Context) (rounds int, converged bool, err error) {
	fulls := c.fulls()
	if len(fulls) != len(c.Gateways)+1 {
		return 0, false, fmt.Errorf("only %d/%d full nodes alive", len(fulls), len(c.Gateways)+1)
	}
	// Every node on a region bus pull-syncs whole ledgers from it. Behind
	// a backbone that excludes the manager — a whole-ledger pull there
	// would drag every data namespace across — and reconciliation moves
	// the control plane and credit instead.
	step, syncers := c.flush, fulls
	if c.Backbone != nil {
		step, syncers = c.ReconcileAll, fulls[1:]
	}
	const maxRounds = 40
	for rounds = 1; rounds <= maxRounds; rounds++ {
		if err := step(ctx); err != nil {
			return rounds, false, err
		}
		for _, n := range syncers {
			n.SyncAll(ctx)
		}
		if c.atFixpoint() {
			return rounds, true, nil
		}
	}
	return maxRounds, false, nil
}

func (c *Cluster) atFixpoint() bool {
	ref := shardSet(c.MgrNode, 0)
	for _, reg := range c.Regions {
		var regional map[string]bool
		for gi, g := range reg.Gateways {
			n := g.Sup.Node()
			if n == nil {
				return false
			}
			if !equalSets(ref, shardSet(n, 0)) {
				return false
			}
			if reg.Shard == 0 {
				continue // flat: the data namespace is the control namespace
			}
			if gi == 0 {
				regional = shardSet(n, reg.Shard)
			} else if !equalSets(regional, shardSet(n, reg.Shard)) {
				return false
			}
		}
	}
	return true
}

// checkZeroLoss verifies every guaranteed-durable transaction is still
// resident in the namespace of the region that admitted it (call
// after Converge, so one gateway per region speaks for all).
func (c *Cluster) checkZeroLoss() (durable, lost int) {
	regional := make([]map[string]bool, len(c.Regions))
	for r, reg := range c.Regions {
		regional[r] = shardSet(reg.Gateways[0].Sup.Node(), reg.Shard)
	}
	c.mustMu.Lock()
	defer c.mustMu.Unlock()
	for id, r := range c.mustHave {
		if !regional[r][id] {
			lost++
		}
	}
	return len(c.mustHave), lost
}

// checkNoLeakage verifies data-namespace isolation: every full node
// holds namespace 0 plus at most its own region's namespace — no
// gateway a vertex of another region's shard, the manager no data
// shard at all. Vacuous in a flat deployment, whose only namespace is 0.
func (c *Cluster) checkNoLeakage() error {
	for _, s := range c.MgrNode.Tangle().Shards() {
		if s != 0 {
			return fmt.Errorf("manager holds %d vertices of shard %d", c.MgrNode.Tangle().ShardSize(s), s)
		}
	}
	for _, g := range c.Gateways {
		n := g.Sup.Node()
		if n == nil {
			continue
		}
		own := c.Regions[g.Region].Shard
		for _, s := range n.Tangle().Shards() {
			if s != 0 && s != own {
				return fmt.Errorf("%s (region %d) holds %d vertices of foreign shard %d",
					g.Name, g.Region, n.Tangle().ShardSize(s), s)
			}
		}
	}
	return nil
}

// checkCreditParity evaluates credit for every known account at the
// shared base instant (which is in the past for positively skewed
// gateways) on the nodes of each region, which hold the same data: the
// region's gateways, and in a flat deployment the manager too. Each must
// report the region's first node's credit and know the same accounts:
// credit is a pure function of what was admitted. It returns the
// manager's account count, the number of cross-node comparisons, the
// worst relative divergence, and the first disagreement.
func (c *Cluster) checkCreditParity() (accounts, crossNode int, maxDelta float64, err error) {
	now := c.Clk.Now()
	accounts = len(c.MgrNode.Engine().Ledger().Nodes())
	agree := func(a, b core.Credit, format string, args ...any) {
		for _, pair := range [][2]float64{{a.CrP, b.CrP}, {a.CrN, b.CrN}, {a.Cr, b.Cr}} {
			rel := math.Abs(pair[0]-pair[1]) / (1 + math.Abs(pair[0]) + math.Abs(pair[1]))
			maxDelta = max(maxDelta, rel)
			if rel > 1e-9 && err == nil {
				err = fmt.Errorf(format, args...)
			}
		}
	}
	for r, reg := range c.Regions {
		var group []*node.FullNode
		if reg.Shard == 0 {
			group = append(group, c.MgrNode)
		}
		for _, g := range reg.Gateways {
			if n := g.Sup.Node(); n != nil {
				group = append(group, n)
			}
		}
		for i := 1; i < len(group); i++ {
			ref, ledger := group[0].Engine().Ledger(), group[i].Engine().Ledger()
			addrs := ledger.Nodes()
			if want := len(ref.Nodes()); len(addrs) != want && err == nil {
				err = fmt.Errorf("region %d node %d knows %d accounts, its first node %d", r, i, len(addrs), want)
			}
			for _, addr := range addrs {
				crossNode++
				agree(ledger.CreditOf(addr, now), ref.CreditOf(addr, now),
					"credit of %s on region %d node %d differs from its first node's", addr.Short(), r, i)
			}
		}
	}
	return accounts, crossNode, maxDelta, err
}

// totalRestarts sums watchdog/explicit restarts across gateways.
func (c *Cluster) totalRestarts() int64 {
	var total int64
	for _, g := range c.Gateways {
		total += g.Sup.Restarts()
	}
	return total
}

// maliciousEvents counts behaviour events recorded on the reference
// node across all accounts.
func (c *Cluster) maliciousEvents() int {
	ledger := c.fulls()[0].Engine().Ledger()
	total := 0
	for _, addr := range ledger.Nodes() {
		total += len(ledger.Events(addr))
	}
	return total
}
