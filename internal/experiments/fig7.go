package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/pow"
)

// Fig7Config parameterizes the Fig-7 sweep: "running time of PoW
// algorithm with increasing difficulty" on a power-constrained device.
type Fig7Config struct {
	// MinDifficulty..MaxDifficulty is the sweep range; the paper sweeps
	// 1..14.
	MinDifficulty int
	MaxDifficulty int
	// Trials per difficulty; the mean over trials is reported. The
	// variance of PoW time is high (geometric attempts), so ≥ 5 trials
	// smooth the curve.
	Trials int
	// CostFactor emulates the Raspberry Pi's hash rate (DESIGN.md §1).
	// DefaultFig7PiCostFactor calibrates difficulty 11 to the paper's
	// ≈0.5-1 s range on commodity laptop hardware.
	CostFactor int
}

// DefaultFig7PiCostFactor approximates a Pi 3B running an interpreted
// PoW loop: each nonce attempt burns this many extra SHA-256 rounds.
const DefaultFig7PiCostFactor = 2000

// DefaultFig7Config returns the paper's sweep with Pi emulation.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		MinDifficulty: 1,
		MaxDifficulty: 14,
		Trials:        5,
		CostFactor:    DefaultFig7PiCostFactor,
	}
}

// QuickFig7Config returns a CI-friendly sweep (no device emulation,
// smaller range) for smoke tests and testing.B benches.
func QuickFig7Config() Fig7Config {
	return Fig7Config{MinDifficulty: 1, MaxDifficulty: 12, Trials: 3, CostFactor: 1}
}

// Fig7Row is one difficulty's measurement.
type Fig7Row struct {
	Difficulty       int
	MeanTime         time.Duration
	MeanAttempts     float64
	ExpectedAttempts float64
}

// Fig7Result is the regenerated figure.
type Fig7Result struct {
	Config Fig7Config
	Rows   []Fig7Row
}

// RunFig7 measures PoW running time across the difficulty sweep.
func RunFig7(ctx context.Context, cfg Fig7Config) (*Fig7Result, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("fig7 trials %d must be ≥ 1", cfg.Trials)
	}
	if cfg.MinDifficulty < pow.MinDifficulty || cfg.MaxDifficulty > pow.MaxDifficulty ||
		cfg.MinDifficulty > cfg.MaxDifficulty {
		return nil, fmt.Errorf("fig7 difficulty range [%d, %d] invalid",
			cfg.MinDifficulty, cfg.MaxDifficulty)
	}
	worker := &pow.Worker{CostFactor: cfg.CostFactor}
	res := &Fig7Result{Config: cfg}
	for d := cfg.MinDifficulty; d <= cfg.MaxDifficulty; d++ {
		var totalTime time.Duration
		var totalAttempts uint64
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Vary the parents per trial so each search explores a
			// fresh nonce landscape.
			trunk := hashutil.Sum([]byte(fmt.Sprintf("fig7-trunk-%d-%d", d, trial)))
			branch := hashutil.Sum([]byte(fmt.Sprintf("fig7-branch-%d-%d", d, trial)))
			r, err := worker.Search(ctx, trunk, branch, d)
			if err != nil {
				return nil, fmt.Errorf("fig7 difficulty %d: %w", d, err)
			}
			totalTime += r.Elapsed
			totalAttempts += r.Attempts
		}
		res.Rows = append(res.Rows, Fig7Row{
			Difficulty:       d,
			MeanTime:         totalTime / time.Duration(cfg.Trials),
			MeanAttempts:     float64(totalAttempts) / float64(cfg.Trials),
			ExpectedAttempts: pow.ExpectedAttempts(d),
		})
	}
	return res, nil
}

// Table builds the figure.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig 7 — running time of PoW with increasing difficulty (cost factor %d, %d trials)",
			r.Config.CostFactor, r.Config.Trials),
		Header: []string{"difficulty", "mean_time_s", "mean_attempts", "expected_attempts"},
	}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Difficulty),
			fsec(row.MeanTime),
			fmt.Sprintf("%.0f", row.MeanAttempts),
			fmt.Sprintf("%.0f", row.ExpectedAttempts),
		)
	}
	return t
}
