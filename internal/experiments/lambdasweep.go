package experiments

import (
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/core"
)

// LambdaSweepConfig parameterizes the punishment-strictness ablation.
// The paper (§IV-B): "We can distribute the weight of these two parts by
// adjusting λ1 and λ2. If we want to adopt strict punishment strategy in
// the system, we can set λ2 larger." This sweep measures exactly that:
// how the honest-node speedup and the attacker's penalty move as λ2
// grows, holding everything else at the Fig-9 setting.
type LambdaSweepConfig struct {
	// Lambda2s are the λ2 values to sweep.
	Lambda2s []float64
	// Base is the Fig-9 configuration the sweep perturbs.
	Base Fig9Config
}

// DefaultLambdaSweepConfig sweeps λ2 over {0.25, 0.5, 1, 2} around the
// paper's 0.5.
func DefaultLambdaSweepConfig() LambdaSweepConfig {
	return LambdaSweepConfig{
		Lambda2s: []float64{0.25, 0.5, 1.0, 2.0},
		Base:     DefaultFig9Config(),
	}
}

// LambdaSweepRow is one λ2 setting's outcome.
type LambdaSweepRow struct {
	Lambda2 float64
	// HonestAvg and AttackerAvg are the Fig-9 "credit normal" and
	// "credit 1 attack" bars under this λ2.
	HonestAvg   time.Duration
	AttackerAvg time.Duration
	// PenaltyRatio = AttackerAvg / HonestAvg — the strictness the
	// paper's knob buys.
	PenaltyRatio float64
}

// LambdaSweepResult is the sweep outcome.
type LambdaSweepResult struct {
	Config LambdaSweepConfig
	Rows   []LambdaSweepRow
}

// RunLambdaSweep executes the ablation.
func RunLambdaSweep(cfg LambdaSweepConfig) (*LambdaSweepResult, error) {
	if len(cfg.Lambda2s) == 0 {
		return nil, fmt.Errorf("lambda sweep needs at least one λ2")
	}
	res := &LambdaSweepResult{Config: cfg}
	for _, l2 := range cfg.Lambda2s {
		if l2 <= 0 {
			return nil, fmt.Errorf("λ2 = %v must be positive", l2)
		}
		f9 := cfg.Base
		f9.Params.Lambda2 = l2
		// Rebuild the policy against the perturbed params so the
		// punishment weighting actually changes.
		f9.Policy = core.AdditivePolicy{Params: f9.Params, Beta: 10, Gamma: 3}
		out, err := RunFig9(f9)
		if err != nil {
			return nil, fmt.Errorf("λ2=%v: %w", l2, err)
		}
		honest := out.Rows[1].AvgPowTime
		attacker := out.Rows[2].AvgPowTime
		ratio := 0.0
		if honest > 0 {
			ratio = attacker.Seconds() / honest.Seconds()
		}
		res.Rows = append(res.Rows, LambdaSweepRow{
			Lambda2:      l2,
			HonestAvg:    honest,
			AttackerAvg:  attacker,
			PenaltyRatio: ratio,
		})
	}
	return res, nil
}

// Table builds the sweep.
func (r *LambdaSweepResult) Table() *Table {
	t := &Table{
		Title:  "λ2 sweep — punishment strictness (Fig-9 harness, 1-attack scenario)",
		Header: []string{"lambda2", "honest_avg_s", "attacker_avg_s", "penalty_ratio"},
	}
	for _, row := range r.Rows {
		t.add(
			ffloat(row.Lambda2),
			fsec(row.HonestAvg),
			fsec(row.AttackerAvg),
			fmt.Sprintf("%.1f", row.PenaltyRatio),
		)
	}
	return t
}
