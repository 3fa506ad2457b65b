package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/scenario"
)

// ShardBenchConfig parameterizes the sharded-topology scaling
// benchmark (DESIGN.md §16). Each cell deploys N region gateways
// behind one backbone: every gateway admits its own devices into its
// own tangle namespace and journals to its own disk, so the only
// shared medium is the backbone's control-plane and credit-digest
// reconciliation. The disk is the bottleneck by construction — every
// gateway's journal flushes through a MemFS with a fixed fsync
// latency — so a single gateway's admission rate is pinned at
// roughly batch/SyncDelay and the question the benchmark answers is
// whether N gateways deliver N times that, i.e. whether admission is
// actually shard-parallel or secretly serialized through shared
// state. Disk waits overlap across gateways regardless of host core
// count, which keeps the cell honest on small CI machines.
type ShardBenchConfig struct {
	// Gateways lists the topology sizes swept; the first entry is the
	// baseline the ideal line is extrapolated from.
	Gateways []int
	// Devices is the light-node count per gateway; each posts
	// closed-loop.
	Devices int
	// Ops is the readings each device submits.
	Ops int
	// SyncDelay is the modelled per-fsync disk latency — the
	// serialized resource that bounds one gateway's throughput.
	SyncDelay time.Duration
	// Difficulty is the initial PoW difficulty (credit lowers it).
	Difficulty int
	// ScaleFloor is the headline gate: aggregate throughput at the
	// largest size must be at least ScaleFloor × the ideal N × baseline
	// line. Zero disables the gate (quick mode).
	ScaleFloor float64
	// Seed drives the per-gateway disks.
	Seed int64
}

// DefaultShardBenchConfig is the acceptance-snapshot scale
// (BENCH_shard.json): 1→4 gateways, aggregate ≥ 0.8× ideal at 4.
func DefaultShardBenchConfig() ShardBenchConfig {
	return ShardBenchConfig{
		Gateways:   []int{1, 2, 4},
		Devices:    6,
		Ops:        30,
		SyncDelay:  5 * time.Millisecond,
		Difficulty: 4,
		ScaleFloor: 0.8,
		Seed:       0x5A4D,
	}
}

// QuickShardBenchConfig is a CI-friendly reduction (no headline gate:
// loaded CI machines make wall-clock ratios unreliable).
func QuickShardBenchConfig() ShardBenchConfig {
	return ShardBenchConfig{
		Gateways:   []int{1, 2},
		Devices:    3,
		Ops:        8,
		SyncDelay:  2 * time.Millisecond,
		Difficulty: 4,
		Seed:       0x5A4D,
	}
}

// ShardCell is one topology size's measurement plus the correctness
// gates that make the throughput claim meaningful: the cell only
// counts if the shards also reconciled.
type ShardCell struct {
	// Gateways and Devices describe the cell (Devices is per gateway).
	Gateways int `json:"gateways"`
	Devices  int `json:"devices_per_gateway"`
	// Admitted is total transactions admitted across all gateways;
	// ElapsedMs the wall-clock load window.
	Admitted  int     `json:"admitted"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Throughput is aggregate admitted tx/s; PerGateway divides by N.
	Throughput float64 `json:"throughput_tps"`
	PerGateway float64 `json:"per_gateway_tps"`
	// Ideal is Gateways × the baseline cell's per-gateway rate;
	// Scaling is Throughput/Ideal (1.0 = perfectly linear).
	Ideal   float64 `json:"ideal_tps"`
	Scaling float64 `json:"scaling"`
	// ControlSize is the (globally replicated) namespace-0 size after
	// reconciliation; ShardSizes the per-gateway data namespaces.
	ControlSize int   `json:"control_namespace_size"`
	ShardSizes  []int `json:"shard_sizes"`
	// BackbonePages counts scoped sync pages pulled over the backbone.
	BackbonePages int64 `json:"backbone_sync_pages"`
	// Converged: every full (manager + gateways) holds the identical
	// control namespace. NoLeakage: no gateway holds a foreign
	// region's data vertices, and the manager holds none at all.
	Converged bool `json:"converged"`
	NoLeakage bool `json:"no_leakage"`
	// CreditAgree: after reconciliation every full derives the same
	// credit for every device, including devices of other regions.
	// CreditParity: on every full, incremental credit matches the
	// RescanCredit oracle for every known account.
	CreditAgree  bool `json:"credit_agree"`
	CreditParity bool `json:"credit_parity"`
}

// ShardSummary is the headline.
type ShardSummary struct {
	// BaselineTPS is the single-gateway aggregate rate.
	BaselineTPS float64 `json:"baseline_tps"`
	// AggregateTPS and IdealTPS are the largest cell's measured and
	// N×baseline rates; Scaling their ratio.
	AggregateTPS float64 `json:"aggregate_tps"`
	IdealTPS     float64 `json:"ideal_tps"`
	Scaling      float64 `json:"scaling"`
	// Pass: Scaling ≥ the configured floor and every cell's
	// correctness gates held.
	Pass bool `json:"pass"`
}

// ShardBenchResult is the full sweep.
type ShardBenchResult struct {
	Config  ShardBenchConfig `json:"config"`
	Cells   []ShardCell      `json:"cells"`
	Summary ShardSummary     `json:"summary"`
}

// runShardCell loads one topology size and returns its measurement.
// The deployment is the scenario cluster's two-tier shape with N
// single-gateway regions: a manager on the backbone, each gateway
// owning namespace i+1, its own regional bus and its own delayed disk.
func runShardCell(ctx context.Context, cfg ShardBenchConfig, n int) (ShardCell, error) {
	cell := ShardCell{Gateways: n, Devices: cfg.Devices}
	c, err := scenario.NewCluster(scenario.Spec{
		Name:     "shard-bench",
		Regions:  n,
		Gateways: 1,
		Devices:  cfg.Devices,
		Params: func() core.Params {
			params := core.DefaultParams()
			params.InitialDifficulty = cfg.Difficulty
			params.MinDifficulty = 1
			params.MaxDifficulty = cfg.Difficulty + 6
			return params
		},
	}, cfg.Seed)
	if err != nil {
		return cell, err
	}
	defer c.Close()
	for _, g := range c.Gateways {
		g.Disk.SetSyncDelay(cfg.SyncDelay)
	}
	// Each gateway pulls the control namespace, so even one that missed
	// the authorization-list push converges before load starts.
	if err := c.ReconcileAll(ctx); err != nil {
		return cell, err
	}

	// Closed-loop load: every device posts Ops readings back-to-back;
	// PostReading returns only after the admitting gateway's journal
	// reports the record durable, so the device's cadence is gated by
	// its gateway's disk — the contended resource under test.
	errs := make(chan error, len(c.Devices))
	var wg sync.WaitGroup
	start := time.Now()
	for d, dev := range c.Devices {
		wg.Add(1)
		go func(gi, di int, device *node.LightNode) {
			defer wg.Done()
			for op := 0; op < cfg.Ops; op++ {
				c.Clk.Advance(time.Millisecond)
				payload := []byte(fmt.Sprintf("g%d-d%d-op%d", gi, di, op))
				if _, err := device.PostReading(ctx, payload); err != nil {
					errs <- fmt.Errorf("gateway %d device %d op %d: %w", gi, di, op, err)
					return
				}
			}
		}(d/cfg.Devices, d%cfg.Devices, dev.Light)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return cell, err
	}

	cell.Admitted = n * cfg.Devices * cfg.Ops
	cell.ElapsedMs = float64(elapsed.Microseconds()) / 1e3
	if elapsed > 0 {
		cell.Throughput = float64(cell.Admitted) / elapsed.Seconds()
		cell.PerGateway = cell.Throughput / float64(n)
	}

	// Reconcile the shards: two rounds carry control-plane history and
	// credit digests across every backbone pair (gateway↔gateway needs
	// the transitive hop through round two), then the manager folds the
	// gateways' digests into its own view.
	c.Clk.Advance(time.Second)
	for round := 0; round < 2; round++ {
		if err := c.ReconcileAll(ctx); err != nil {
			return cell, err
		}
		c.MgrNode.Reconcile(ctx)
	}

	// Convergence, leakage and oracle parity are the cluster's pinned
	// assertions; a failed one fails the cell.
	res, err := c.Finish(ctx)
	cell.ControlSize, cell.ShardSizes = res.TangleSize, res.ShardSizes
	cell.Converged, cell.CreditParity = res.Converged, res.CreditParityOK
	if err != nil {
		return cell, err
	}
	cell.NoLeakage = true

	// Credit agreement: reconciliation must leave every full agreeing
	// on every device — including devices that never touched it.
	now := c.Clk.Now()
	fulls := []*node.FullNode{c.MgrNode}
	for _, g := range c.Gateways {
		gw := g.Sup.Node()
		fulls = append(fulls, gw)
		cell.BackbonePages += gw.MemoryStats().BackboneSyncPages
	}
	cell.CreditAgree = true
	for d, dev := range c.Devices {
		addr := dev.Key.Address()
		home := fulls[1+d/cfg.Devices].Engine().Ledger().CreditOf(addr, now)
		if home.CrP <= 0 {
			cell.CreditAgree = false
		}
		for _, f := range fulls {
			got := f.Engine().Ledger().CreditOf(addr, now)
			if math.Abs(got.Cr-home.Cr) > 1e-9 || math.Abs(got.CrP-home.CrP) > 1e-9 ||
				math.Abs(got.CrN-home.CrN) > 1e-9 {
				cell.CreditAgree = false
			}
		}
	}
	return cell, nil
}

// RunShardBench sweeps the topology sizes and gates the headline.
func RunShardBench(ctx context.Context, cfg ShardBenchConfig) (*ShardBenchResult, error) {
	if len(cfg.Gateways) == 0 || cfg.Devices < 1 || cfg.Ops < 1 {
		return nil, fmt.Errorf("shard bench workload too small")
	}
	res := &ShardBenchResult{Config: cfg}
	for _, n := range cfg.Gateways {
		if n < 1 {
			return nil, fmt.Errorf("gateway count %d", n)
		}
		cell, err := runShardCell(ctx, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("%d gateways: %w", n, err)
		}
		res.Cells = append(res.Cells, cell)
	}

	base := res.Cells[0].PerGateway
	gatesOK := true
	for i := range res.Cells {
		c := &res.Cells[i]
		c.Ideal = base * float64(c.Gateways)
		if c.Ideal > 0 {
			c.Scaling = c.Throughput / c.Ideal
		}
		if !c.Converged || !c.NoLeakage || !c.CreditAgree || !c.CreditParity {
			gatesOK = false
		}
	}
	last := res.Cells[len(res.Cells)-1]
	res.Summary = ShardSummary{
		BaselineTPS:  res.Cells[0].Throughput,
		AggregateTPS: last.Throughput,
		IdealTPS:     last.Ideal,
		Scaling:      last.Scaling,
		Pass:         gatesOK && last.Scaling >= cfg.ScaleFloor,
	}
	if !gatesOK {
		return res, fmt.Errorf("a correctness gate failed: %+v", res.Cells)
	}
	if cfg.ScaleFloor > 0 && last.Scaling < cfg.ScaleFloor {
		return res, fmt.Errorf("aggregate throughput %.0f tx/s is %.2f× the %d-gateway ideal %.0f tx/s (floor %.2f)",
			last.Throughput, last.Scaling, last.Gateways, last.Ideal, cfg.ScaleFloor)
	}
	return res, nil
}

// Render writes the sweep as an aligned table.
func (r *ShardBenchResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Sharded-topology scaling — %d devices/gateway × %d ops, %v fsync per gateway disk\n",
		r.Config.Devices, r.Config.Ops, r.Config.SyncDelay); err != nil {
		return err
	}
	t := &table{header: []string{"gateways", "admitted", "elapsed_ms", "agg_tps", "per_gw_tps", "scaling", "control", "shards", "converged", "no_leak", "credit_agree", "credit_parity"}}
	for _, c := range r.Cells {
		t.add(
			fmt.Sprintf("%d", c.Gateways),
			fmt.Sprintf("%d", c.Admitted),
			fmt.Sprintf("%.1f", c.ElapsedMs),
			fmt.Sprintf("%.0f", c.Throughput),
			fmt.Sprintf("%.0f", c.PerGateway),
			fmt.Sprintf("%.2fx", c.Scaling),
			fmt.Sprintf("%d", c.ControlSize),
			fmt.Sprintf("%v", c.ShardSizes),
			fmt.Sprintf("%v", c.Converged),
			fmt.Sprintf("%v", c.NoLeakage),
			fmt.Sprintf("%v", c.CreditAgree),
			fmt.Sprintf("%v", c.CreditParity),
		)
	}
	if err := t.render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"\nHeadline: %d gateways deliver %.0f tx/s aggregate vs %.0f ideal (%.2fx, floor %.2f) — pass=%v\n",
		r.Cells[len(r.Cells)-1].Gateways, r.Summary.AggregateTPS, r.Summary.IdealTPS,
		r.Summary.Scaling, r.Config.ScaleFloor, r.Summary.Pass)
	return err
}

// CSV writes one row per cell.
func (r *ShardBenchResult) CSV(w io.Writer) error {
	t := &table{header: []string{"gateways", "devices_per_gateway", "admitted", "elapsed_ms", "throughput_tps", "per_gateway_tps", "ideal_tps", "scaling", "control_namespace_size", "backbone_sync_pages", "converged", "no_leakage", "credit_agree", "credit_parity"}}
	for _, c := range r.Cells {
		t.add(
			fmt.Sprintf("%d", c.Gateways),
			fmt.Sprintf("%d", c.Devices),
			fmt.Sprintf("%d", c.Admitted),
			fmt.Sprintf("%.3f", c.ElapsedMs),
			fmt.Sprintf("%.3f", c.Throughput),
			fmt.Sprintf("%.3f", c.PerGateway),
			fmt.Sprintf("%.3f", c.Ideal),
			fmt.Sprintf("%.4f", c.Scaling),
			fmt.Sprintf("%d", c.ControlSize),
			fmt.Sprintf("%d", c.BackbonePages),
			fmt.Sprintf("%v", c.Converged),
			fmt.Sprintf("%v", c.NoLeakage),
			fmt.Sprintf("%v", c.CreditAgree),
			fmt.Sprintf("%v", c.CreditParity),
		)
	}
	return t.csv(w)
}

// JSON writes the machine-readable snapshot (BENCH_shard.json in the
// Makefile's bench-shard target).
func (r *ShardBenchResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
