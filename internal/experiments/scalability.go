package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
)

// ScalabilityConfig parameterizes the device-concurrency sweep — the
// measured counterpart of the paper's §I scalability goal ("a general,
// scalable and secure blockchain-based IoT system"): how admission
// throughput and latency behave as the device population grows against
// a single gateway.
type ScalabilityConfig struct {
	// DeviceCounts are the population sizes to sweep.
	DeviceCounts []int
	// TxPerDevice is each device's workload.
	TxPerDevice int
	// Difficulty is the (static) PoW difficulty.
	Difficulty int
	// PayloadBytes sizes each reading.
	PayloadBytes int
}

// DefaultScalabilityConfig sweeps 1..16 devices.
func DefaultScalabilityConfig() ScalabilityConfig {
	return ScalabilityConfig{
		DeviceCounts: []int{1, 2, 4, 8, 16},
		TxPerDevice:  15,
		Difficulty:   12,
		PayloadBytes: 64,
	}
}

// ScalabilityRow is one population size's measurement.
type ScalabilityRow struct {
	Devices      int
	Transactions int
	Elapsed      time.Duration
	TPS          float64
	MeanAccept   time.Duration
	P95Accept    time.Duration
	Tips         int
}

// ScalabilityResult is the sweep outcome.
type ScalabilityResult struct {
	Config ScalabilityConfig
	Rows   []ScalabilityRow
}

// RunScalability executes the sweep. Each population size gets a fresh
// deployment so credit state does not leak across rows.
func RunScalability(ctx context.Context, cfg ScalabilityConfig) (*ScalabilityResult, error) {
	if len(cfg.DeviceCounts) == 0 || cfg.TxPerDevice < 1 {
		return nil, fmt.Errorf("scalability workload must be positive")
	}
	if cfg.Difficulty < pow.MinDifficulty || cfg.Difficulty > pow.MaxDifficulty {
		return nil, fmt.Errorf("scalability difficulty %d out of range", cfg.Difficulty)
	}
	res := &ScalabilityResult{Config: cfg}
	for _, n := range cfg.DeviceCounts {
		if n < 1 {
			return nil, fmt.Errorf("device count %d invalid", n)
		}
		row, err := runScalabilityRow(ctx, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("devices=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runScalabilityRow(ctx context.Context, cfg ScalabilityConfig, devices int) (ScalabilityRow, error) {
	managerKey, err := identity.Generate()
	if err != nil {
		return ScalabilityRow{}, err
	}
	params := core.DefaultParams()
	params.InitialDifficulty = cfg.Difficulty
	params.MinDifficulty = 1
	params.MaxDifficulty = pow.MaxDifficulty
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     params,
		Policy:     core.StaticPolicy{Difficulty: cfg.Difficulty},
	})
	if err != nil {
		return ScalabilityRow{}, err
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		return ScalabilityRow{}, err
	}

	lights := make([]*node.LightNode, devices)
	for i := range lights {
		key, err := identity.Generate()
		if err != nil {
			return ScalabilityRow{}, err
		}
		mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
		if lights[i], err = node.NewLight(node.LightConfig{Key: key, Gateway: full}); err != nil {
			return ScalabilityRow{}, err
		}
	}
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		return ScalabilityRow{}, err
	}

	payload := make([]byte, cfg.PayloadBytes)
	var accept metrics.Histogram
	total := devices * cfg.TxPerDevice

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, devices)
	for _, dev := range lights {
		dev := dev
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.TxPerDevice; i++ {
				txStart := time.Now()
				if _, err := dev.PostReading(ctx, payload); err != nil {
					errCh <- err
					return
				}
				accept.Observe(time.Since(txStart))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return ScalabilityRow{}, err
	default:
	}

	sum := accept.Summarize()
	return ScalabilityRow{
		Devices:      devices,
		Transactions: total,
		Elapsed:      elapsed,
		TPS:          float64(total) / elapsed.Seconds(),
		MeanAccept:   sum.Mean,
		P95Accept:    sum.P95,
		Tips:         full.Tangle().TipCount(),
	}, nil
}

// Render writes the sweep as an aligned table.
func (r *ScalabilityResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Scalability — admission throughput vs device population (difficulty %d, %d txs/device)\n",
		r.Config.Difficulty, r.Config.TxPerDevice); err != nil {
		return err
	}
	t := &table{header: []string{"devices", "txs", "elapsed_s", "tps", "mean_accept_s", "p95_accept_s", "tips"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Devices),
			fmt.Sprintf("%d", row.Transactions),
			fsec(row.Elapsed),
			fmt.Sprintf("%.1f", row.TPS),
			fsec(row.MeanAccept),
			fsec(row.P95Accept),
			fmt.Sprintf("%d", row.Tips),
		)
	}
	return t.render(w)
}

// CSV writes the sweep as CSV.
func (r *ScalabilityResult) CSV(w io.Writer) error {
	t := &table{header: []string{"devices", "txs", "elapsed_s", "tps", "mean_accept_s", "p95_accept_s", "tips"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Devices),
			fmt.Sprintf("%d", row.Transactions),
			fsec(row.Elapsed),
			fmt.Sprintf("%.1f", row.TPS),
			fsec(row.MeanAccept),
			fsec(row.P95Accept),
			fmt.Sprintf("%d", row.Tips),
		)
	}
	return t.csv(w)
}
