package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/loadgen"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
)

// LatencyBenchConfig parameterizes the open-loop admission-latency
// sweep: devices submit sensor readings to a gateway at a sequence of
// FIXED offered rates while passive relay peers absorb the gossip
// fan-out, and every latency is measured from the transaction's
// *scheduled* send instant (see internal/loadgen for why closed-loop
// generators understate tail latency — coordinated omission). The
// committed BENCH_latency.json also carries "per-tx" rows and speedup
// columns measured against the retired one-verification-per-transaction
// relay path; they were last regenerable at commit 9ef8962.
type LatencyBenchConfig struct {
	// Rates lists the offered loads (tx/s) to sweep.
	Rates []float64
	// TxPerRate is how many transactions each rate level issues.
	TxPerRate int
	// Devices is the pool of distinct submitting accounts; submissions
	// round-robin across them.
	Devices int
	// PayloadBytes sizes each sensor reading.
	PayloadBytes int
	// Difficulty is the static PoW difficulty — kept low so the sweep
	// stresses the admission and relay-verification path, not mining.
	Difficulty int
	// RelayPeers is the number of passive full nodes receiving the
	// fan-out; end-to-end confirmation means ALL of them hold the
	// transaction.
	RelayPeers int
	// MaxInFlight bounds concurrently open submissions (loadgen slots).
	MaxInFlight int
	// NetLatency is the in-memory bus's per-delivery delay. It models a
	// real link, and it is also what gives the broadcaster's coalescing
	// something to coalesce: with zero-latency delivery every datagram
	// carries one transaction and the batched-verification path never
	// sees a batch, which no deployed network resembles.
	NetLatency time.Duration
	// ConfirmTimeout caps one transaction's wait for relay confirmation;
	// expiry records the sample as failed, it is never dropped.
	ConfirmTimeout time.Duration
}

// DefaultLatencyBenchConfig sweeps three offered rates spanning idle to
// busy, the scale BENCH_latency.json is pinned at.
func DefaultLatencyBenchConfig() LatencyBenchConfig {
	return LatencyBenchConfig{
		Rates:          []float64{100, 400, 1600},
		TxPerRate:      600,
		Devices:        32,
		PayloadBytes:   64,
		Difficulty:     8,
		RelayPeers:     2,
		MaxInFlight:    256,
		NetLatency:     5 * time.Millisecond,
		ConfirmTimeout: 10 * time.Second,
	}
}

// QuickLatencyBenchConfig is a CI-friendly reduction: one small rate,
// few transactions.
func QuickLatencyBenchConfig() LatencyBenchConfig {
	return LatencyBenchConfig{
		Rates:          []float64{400},
		TxPerRate:      80,
		Devices:        8,
		PayloadBytes:   48,
		Difficulty:     6,
		RelayPeers:     1,
		MaxInFlight:    64,
		NetLatency:     5 * time.Millisecond,
		ConfirmTimeout: 5 * time.Second,
	}
}

// LatencyRow is one offered rate's measurement.
type LatencyRow struct {
	// OfferedTPS is the configured arrival rate; AchievedTPS is
	// confirmed completions per second of elapsed run time.
	OfferedTPS  float64 `json:"offered_tps"`
	AchievedTPS float64 `json:"achieved_tps"`
	Submitted   int     `json:"submitted"`
	Failed      int     `json:"failed"`

	// Admission latency: scheduled send instant → gateway accepted
	// (mining + admit pipeline; open-loop, so generator slip counts).
	AdmitP50  time.Duration `json:"admit_p50_ns"`
	AdmitP99  time.Duration `json:"admit_p99_ns"`
	AdmitP999 time.Duration `json:"admit_p999_ns"`

	// End-to-end latency: scheduled send instant → every relay peer
	// holds the transaction.
	E2EP50  time.Duration `json:"e2e_p50_ns"`
	E2EP99  time.Duration `json:"e2e_p99_ns"`
	E2EP999 time.Duration `json:"e2e_p999_ns"`

	// VerifyNsPerTx is the relay peers' inbound signature-settlement
	// cost per transaction (histogram total / transactions settled).
	VerifyNsPerTx float64 `json:"verify_ns_per_tx"`
	// MeanVerifyBatch is signatures per VerifyBatch call on the relays
	// (1.0 means gossip delivered no coalesced batches and batching had
	// nothing to work with).
	MeanVerifyBatch float64 `json:"mean_verify_batch"`
}

// LatencyBenchResult is the sweep.
type LatencyBenchResult struct {
	Config LatencyBenchConfig `json:"config"`
	Rows   []LatencyRow       `json:"rows"`
}

// RunLatencyBench executes the sweep. Each rate level stands up a fresh
// gateway + relay cluster on an in-memory bus so per-level metrics and
// ledgers never bleed into each other.
func RunLatencyBench(ctx context.Context, cfg LatencyBenchConfig) (*LatencyBenchResult, error) {
	if len(cfg.Rates) == 0 || cfg.TxPerRate < 1 || cfg.Devices < 1 || cfg.RelayPeers < 1 {
		return nil, fmt.Errorf("latency bench workload too small")
	}
	if cfg.ConfirmTimeout <= 0 {
		cfg.ConfirmTimeout = 10 * time.Second
	}
	res := &LatencyBenchResult{Config: cfg}
	for _, rate := range cfg.Rates {
		row, err := runLatencyLevel(ctx, cfg, rate)
		if err != nil {
			return nil, fmt.Errorf("rate=%.0f: %w", rate, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// latencyCluster is one level's freshly built network.
type latencyCluster struct {
	bus     *gossip.Bus
	gateway *node.FullNode
	relays  []*node.FullNode
	devices []*node.LightNode
	devMu   []sync.Mutex // LightNode submit is not self-synchronizing
}

func (c *latencyCluster) close() {
	for _, r := range c.relays {
		_ = r.Close()
	}
	if c.gateway != nil {
		_ = c.gateway.Close()
	}
	if c.bus != nil {
		_ = c.bus.Close()
	}
}

func buildLatencyCluster(ctx context.Context, cfg LatencyBenchConfig) (*latencyCluster, error) {
	c := &latencyCluster{bus: gossip.NewBus()}
	c.bus.SetLatency(cfg.NetLatency)
	managerKey, err := identity.Generate()
	if err != nil {
		return c, err
	}
	params := core.DefaultParams()
	params.InitialDifficulty = cfg.Difficulty
	params.MinDifficulty = 1
	params.MaxDifficulty = pow.MaxDifficulty

	mgrNet, err := c.bus.Join("gateway")
	if err != nil {
		return c, err
	}
	c.gateway, err = node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     params,
		Policy:     core.StaticPolicy{Difficulty: cfg.Difficulty},
		Network:    mgrNet,
	})
	if err != nil {
		return c, err
	}
	mgr, err := node.NewManager(c.gateway)
	if err != nil {
		return c, err
	}

	for i := 0; i < cfg.RelayPeers; i++ {
		relayKey, err := identity.Generate()
		if err != nil {
			return c, err
		}
		relayNet, err := c.bus.Join(fmt.Sprintf("relay-%d", i))
		if err != nil {
			return c, err
		}
		relay, err := node.NewFull(node.FullConfig{
			Key:        relayKey,
			Role:       identity.RoleGateway,
			ManagerPub: managerKey.Public(),
			Credit:     params,
			Policy:     core.StaticPolicy{Difficulty: cfg.Difficulty},
			Network:    relayNet,
		})
		if err != nil {
			return c, err
		}
		c.relays = append(c.relays, relay)
	}

	c.devices = make([]*node.LightNode, cfg.Devices)
	c.devMu = make([]sync.Mutex, cfg.Devices)
	for i := range c.devices {
		key, err := identity.Generate()
		if err != nil {
			return c, err
		}
		mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
		c.devices[i], err = node.NewLight(node.LightConfig{Key: key, Gateway: c.gateway})
		if err != nil {
			return c, err
		}
	}
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		return c, err
	}
	return c, nil
}

func runLatencyLevel(ctx context.Context, cfg LatencyBenchConfig, rate float64) (LatencyRow, error) {
	cluster, err := buildLatencyCluster(ctx, cfg)
	defer cluster.close()
	if err != nil {
		return LatencyRow{}, err
	}

	payload := make([]byte, cfg.PayloadBytes)
	admitLat := make([]time.Duration, cfg.TxPerRate)
	admitOK := make([]bool, cfg.TxPerRate)

	op := func(i int, scheduled time.Time) error {
		d := i % len(cluster.devices)
		cluster.devMu[d].Lock()
		sub, err := cluster.devices[d].PostReading(ctx, payload)
		cluster.devMu[d].Unlock()
		if err != nil {
			return err
		}
		admitLat[i] = time.Since(scheduled)
		admitOK[i] = true
		// Confirmation: every relay holds the transaction. Polling at a
		// fraction of the gossip latency keeps the added error small
		// relative to the millisecond-scale quantities reported.
		deadline := time.Now().Add(cfg.ConfirmTimeout)
		for _, relay := range cluster.relays {
			for !relay.Tangle().Contains(sub.Info.ID) {
				if time.Now().After(deadline) {
					return fmt.Errorf("confirmation timeout at rate %.0f", rate)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		return nil
	}

	genRes, err := loadgen.Run(ctx, loadgen.Config{
		Rate:        rate,
		Count:       cfg.TxPerRate,
		MaxInFlight: cfg.MaxInFlight,
	}, op)
	if err != nil {
		return LatencyRow{}, err
	}
	if err := cluster.gateway.FlushBroadcast(ctx); err != nil {
		return LatencyRow{}, err
	}

	admits := make([]time.Duration, 0, len(admitLat))
	for i, ok := range admitOK {
		if ok {
			admits = append(admits, admitLat[i])
		}
	}
	admitSum := loadgen.Summarize(admits)
	e2eSum := loadgen.Summarize(genRes.Latencies())

	// Relay-side verification cost. Each VerifyBatch call observes one
	// VerifyLatency sample covering BatchVerified/BatchVerifies
	// signatures; per-transaction verifies observe one sample each, so
	// settled = batched signatures + (samples − batch calls).
	var verifyTotal time.Duration
	var settled, batchCalls, batchSigs int64
	for _, relay := range cluster.relays {
		p := relay.Pipeline()
		s := p.VerifyLatency.Summarize()
		verifyTotal += s.Total
		settled += p.BatchVerified.Value() + int64(s.Count) - p.BatchVerifies.Value()
		batchCalls += p.BatchVerifies.Value()
		batchSigs += p.BatchVerified.Value()
	}
	row := LatencyRow{
		OfferedTPS:  rate,
		AchievedTPS: genRes.AchievedRate(),
		Submitted:   len(genRes.Samples),
		Failed:      genRes.Failed,
		AdmitP50:    admitSum.P50,
		AdmitP99:    admitSum.P99,
		AdmitP999:   admitSum.P999,
		E2EP50:      e2eSum.P50,
		E2EP99:      e2eSum.P99,
		E2EP999:     e2eSum.P999,
	}
	if settled > 0 {
		row.VerifyNsPerTx = float64(verifyTotal.Nanoseconds()) / float64(settled)
	}
	if batchCalls > 0 {
		row.MeanVerifyBatch = float64(batchSigs) / float64(batchCalls)
	}
	return row, nil
}

// Render writes the sweep as an aligned table.
func (r *LatencyBenchResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Open-loop admission latency — %d txs/rate from %d devices, %d relay peer(s), difficulty %d\n"+
			"latencies measured from each transaction's SCHEDULED send (coordinated-omission-safe)\n",
		r.Config.TxPerRate, r.Config.Devices, r.Config.RelayPeers, r.Config.Difficulty); err != nil {
		return err
	}
	t := &table{header: []string{"offered_tps", "achieved_tps", "failed",
		"admit_p50", "admit_p99", "admit_p999", "e2e_p50", "e2e_p99", "e2e_p999",
		"verify_ns/tx", "mean_batch"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%.0f", row.OfferedTPS),
			fmt.Sprintf("%.1f", row.AchievedTPS),
			fmt.Sprintf("%d", row.Failed),
			fsec(row.AdmitP50),
			fsec(row.AdmitP99),
			fsec(row.AdmitP999),
			fsec(row.E2EP50),
			fsec(row.E2EP99),
			fsec(row.E2EP999),
			fmt.Sprintf("%.0f", row.VerifyNsPerTx),
			fmt.Sprintf("%.1f", row.MeanVerifyBatch),
		)
	}
	return t.render(w)
}

// CSV writes the sweep as CSV.
func (r *LatencyBenchResult) CSV(w io.Writer) error {
	t := &table{header: []string{"offered_tps", "achieved_tps", "submitted", "failed",
		"admit_p50_s", "admit_p99_s", "admit_p999_s", "e2e_p50_s", "e2e_p99_s", "e2e_p999_s",
		"verify_ns_per_tx", "mean_verify_batch"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%.0f", row.OfferedTPS),
			fmt.Sprintf("%.2f", row.AchievedTPS),
			fmt.Sprintf("%d", row.Submitted),
			fmt.Sprintf("%d", row.Failed),
			fsec(row.AdmitP50),
			fsec(row.AdmitP99),
			fsec(row.AdmitP999),
			fsec(row.E2EP50),
			fsec(row.E2EP99),
			fsec(row.E2EP999),
			fmt.Sprintf("%.0f", row.VerifyNsPerTx),
			fmt.Sprintf("%.2f", row.MeanVerifyBatch))
	}
	return t.csv(w)
}

// JSON writes the sweep as a machine-readable snapshot
// (BENCH_latency.json in the Makefile's bench target).
func (r *LatencyBenchResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
