package experiments

import (
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Fig9Config parameterizes the four control experiments of the paper's
// Fig 9: average PoW time per transaction over a 3ΔT (90 s) window for
//
//  1. original PoW (static difficulty D0);
//  2. credit-based PoW, normal behaviour;
//  3. credit-based PoW, one malicious attack;
//  4. credit-based PoW, two malicious attacks.
//
// The experiments run on virtual time against the real credit ledger
// and difficulty policy, with PoW latency given by the device curve
// (see DESIGN.md §1: the Pi is emulated, not assumed).
type Fig9Config struct {
	Params core.Params
	// Policy maps credit to difficulty; nil selects the paper-literal
	// inverse policy.
	Policy core.DifficultyPolicy
	// Curve models the device's difficulty→latency relation.
	Curve DeviceCurve
	// Horizon is the experiment window (the paper uses 3ΔT = 90 s).
	Horizon time.Duration
	// TxPeriod is the sensor reporting period.
	TxPeriod time.Duration
	// WeightPattern cycles transaction weights.
	WeightPattern []float64
	// AttackTimes for scenarios 3 and 4.
	OneAttack  []time.Duration
	TwoAttacks []time.Duration
	// Tick is the simulation resolution.
	Tick time.Duration
}

// DefaultFig9Config returns the paper's setting. The additive policy
// tuning (β=10, γ=3) is calibrated so the four bars land near the
// paper's ratios (≈4-6× faster honest; attackers multiples slower); see
// EXPERIMENTS.md for the sensitivity discussion and the inverse-policy
// ablation.
func DefaultFig9Config() Fig9Config {
	params := core.DefaultParams()
	return Fig9Config{
		Params:        params,
		Policy:        core.AdditivePolicy{Params: params, Beta: 10, Gamma: 3},
		Curve:         DefaultPiCurve(),
		Horizon:       90 * time.Second,
		TxPeriod:      5 * time.Second,
		WeightPattern: []float64{1, 2, 3, 2},
		OneAttack:     []time.Duration{24 * time.Second},
		TwoAttacks:    []time.Duration{24 * time.Second, 44 * time.Second},
		Tick:          100 * time.Millisecond,
	}
}

// Fig9Row is one control experiment's outcome.
type Fig9Row struct {
	Scenario     string
	Transactions int
	Attacks      int
	// AvgPowTime is the mean PoW time per completed transaction —
	// the bar height in the paper's Fig 9.
	AvgPowTime time.Duration
	// TotalPowTime is the summed PoW latency over the window.
	TotalPowTime time.Duration
}

// Fig9Result is the regenerated figure.
type Fig9Result struct {
	Config Fig9Config
	Rows   []Fig9Row
}

// RunFig9 executes the four control experiments.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("fig9 params: %w", err)
	}
	if !cfg.Curve.Valid() {
		return nil, fmt.Errorf("fig9 device curve invalid")
	}
	if cfg.Horizon <= 0 || cfg.TxPeriod <= 0 || cfg.Tick <= 0 {
		return nil, fmt.Errorf("fig9 durations must be positive")
	}
	if len(cfg.WeightPattern) == 0 {
		return nil, fmt.Errorf("fig9 weight pattern must not be empty")
	}

	res := &Fig9Result{Config: cfg}
	scenarios := []struct {
		name    string
		static  bool
		attacks []time.Duration
	}{
		{name: "original PoW", static: true},
		{name: "credit-based PoW, normal", static: false},
		{name: "credit-based PoW, 1 attack", static: false, attacks: cfg.OneAttack},
		{name: "credit-based PoW, 2 attacks", static: false, attacks: cfg.TwoAttacks},
	}
	for _, sc := range scenarios {
		row, err := runFig9Scenario(cfg, sc.name, sc.static, sc.attacks)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runFig9Scenario(cfg Fig9Config, name string, static bool, attackTimes []time.Duration) (Fig9Row, error) {
	ledger, err := core.NewLedger(cfg.Params)
	if err != nil {
		return Fig9Row{}, err
	}
	var policy core.DifficultyPolicy
	switch {
	case static:
		policy = core.StaticPolicy{Difficulty: cfg.Params.InitialDifficulty}
	case cfg.Policy != nil:
		policy = cfg.Policy
	default:
		policy = core.DefaultInversePolicy(cfg.Params)
	}
	engine := core.NewEngine(ledger, policy)

	nodeAddr := identity.Address(hashutil.Sum([]byte("fig9-" + name)))
	start := time.Unix(1_700_000_000, 0).UTC()
	attacks := append([]time.Duration(nil), attackTimes...)

	row := Fig9Row{Scenario: name, Attacks: len(attackTimes)}
	txCount := 0
	var txSeq uint64

	// Mining-start accounting: the device collects a reading every
	// TxPeriod, then mines until the elapsed mining time covers the PoW
	// latency demanded by its *current* difficulty. A transaction's PoW
	// time is the real time spent mining it — so a punished transaction
	// is charged the whole lock-out it sat through (the paper's 37 s
	// gap counts this way), while an honest one is charged ≈ Curve(D).
	startMine := cfg.TxPeriod // first reading is ready after one period
	for at := time.Duration(0); at <= cfg.Horizon; at += cfg.Tick {
		now := start.Add(at)
		if len(attacks) > 0 && at >= attacks[0] {
			ledger.RecordMalicious(nodeAddr, core.EventRecord{
				Behaviour: core.BehaviourDoubleSpend,
				At:        start.Add(attacks[0]),
				Detail:    "scripted attack",
			})
			// The in-flight PoW is wasted: mining restarts now.
			startMine = attacks[0]
			attacks = attacks[1:]
			continue
		}
		if at < startMine {
			continue
		}
		d := engine.DifficultyFor(nodeAddr, now)
		if at-startMine >= cfg.Curve.At(d) {
			w := cfg.WeightPattern[txCount%len(cfg.WeightPattern)]
			txSeq++
			ledger.RecordTransaction(nodeAddr,
				hashutil.Sum([]byte(fmt.Sprintf("fig9-%s-%d", name, txSeq))), w, now)
			txCount++
			charge := at - startMine
			if charge < cfg.Tick {
				charge = cfg.Curve.At(d) // sub-tick PoW: charge the model time
			}
			row.TotalPowTime += charge
			startMine = at + cfg.TxPeriod // next reading
		}
	}
	row.Transactions = txCount
	if txCount > 0 {
		row.AvgPowTime = row.TotalPowTime / time.Duration(txCount)
	} else {
		// No transaction completed: the attacker is effectively locked
		// out; report the full window as the (unfinished) PoW cost.
		row.AvgPowTime = cfg.Horizon
		row.TotalPowTime = cfg.Horizon
	}
	return row, nil
}

// Table builds the figure: one row per bar.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig 9 — average PoW time per transaction, four control experiments (window %s, D0=%d)",
			r.Config.Horizon, r.Config.Params.InitialDifficulty),
		Header: []string{"scenario", "transactions", "attacks", "avg_pow_s", "total_pow_s"},
	}
	for _, row := range r.Rows {
		t.add(
			row.Scenario,
			fmt.Sprintf("%d", row.Transactions),
			fmt.Sprintf("%d", row.Attacks),
			fsec(row.AvgPowTime),
			fsec(row.TotalPowTime),
		)
	}
	return t
}
