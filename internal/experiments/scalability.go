package experiments

import (
	"context"
	"fmt"
	"time"

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
	run, err := runDevices(ctx, cfg.Difficulty, devices, cfg.TxPerDevice, cfg.PayloadBytes)
	if err != nil {
		return ScalabilityRow{}, err
	}
	total := devices * cfg.TxPerDevice
	return ScalabilityRow{
		Devices:      devices,
		Transactions: total,
		Elapsed:      run.elapsed,
		TPS:          float64(total) / run.elapsed.Seconds(),
		MeanAccept:   run.accept.Mean,
		P95Accept:    run.accept.P95,
		Tips:         run.stats.Tips,
	}, nil
}

// Table builds the sweep.
func (r *ScalabilityResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Scalability — admission throughput vs device population (difficulty %d, %d txs/device)",
			r.Config.Difficulty, r.Config.TxPerDevice),
		Header: []string{"devices", "txs", "elapsed_s", "tps", "mean_accept_s", "p95_accept_s", "tips"},
	}
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
	return t
}
