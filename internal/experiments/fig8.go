package experiments

import (
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Fig8Config parameterizes the credit-timeline simulation: "credit value
// changes based on nodes' behaviours" (paper Fig 8). The simulation runs
// on virtual time, driving the real credit ledger and difficulty policy
// with a behaviour script: the node transacts steadily, then conducts
// one or more attacks; the punishment stretches its PoW time, producing
// the paper's transaction gap and gradual recovery.
type Fig8Config struct {
	// Params are the credit parameters (paper defaults: λ1=1, λ2=0.5,
	// ΔT=30 s, α_l=0.5, α_d=1).
	Params core.Params
	// Policy maps credit to difficulty; nil selects the default
	// additive policy.
	Policy core.DifficultyPolicy
	// Horizon is the simulated span (the paper plots 100 s ≈ 3ΔT).
	Horizon time.Duration
	// SampleEvery is the plot resolution.
	SampleEvery time.Duration
	// TxPeriod is the honest inter-transaction period.
	TxPeriod time.Duration
	// Curve models the device's difficulty→latency relation (the
	// paper's device is a Pi 3B measuring ≈0.7 s at D0=11).
	Curve DeviceCurve
	// AttackTimes are the instants (offsets from start) at which the
	// node conducts a double-spend. Fig 8(a) uses {24 s}; Fig 8(b)
	// uses {24 s, 44 s}.
	AttackTimes []time.Duration
	// WeightPattern cycles transaction weights w_k (the paper's bars
	// reach ≈3).
	WeightPattern []float64
}

// DefaultFig8Config returns the Fig-8(a) setting (one attack).
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Params:        core.DefaultParams(),
		Horizon:       100 * time.Second,
		SampleEvery:   time.Second,
		TxPeriod:      2 * time.Second,
		Curve:         DefaultPiCurve(),
		AttackTimes:   []time.Duration{24 * time.Second},
		WeightPattern: []float64{1, 2, 3, 2},
	}
}

// Fig8bConfig returns the Fig-8(b) setting (two attacks).
func Fig8bConfig() Fig8Config {
	cfg := DefaultFig8Config()
	cfg.AttackTimes = []time.Duration{24 * time.Second, 44 * time.Second}
	return cfg
}

// Fig8Sample is one plotted instant.
type Fig8Sample struct {
	At         time.Duration
	TxWeight   float64 // weight of the tx issued in this sample window, 0 if none
	Attack     bool    // an attack happened in this sample window
	CrP        float64
	CrN        float64
	Cr         float64
	Difficulty int
}

// Fig8Result is the regenerated figure.
type Fig8Result struct {
	Config  Fig8Config
	Samples []Fig8Sample
	// RecoveryGaps, one per attack: how long after the attack the node
	// needed before completing its next transaction (the paper reports
	// 37 s for one attack).
	RecoveryGaps []time.Duration
}

// RunFig8 simulates the behaviour script against the credit mechanism.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("fig8 params: %w", err)
	}
	if cfg.Horizon <= 0 || cfg.SampleEvery <= 0 || cfg.TxPeriod <= 0 {
		return nil, fmt.Errorf("fig8 durations must be positive")
	}
	if !cfg.Curve.Valid() {
		return nil, fmt.Errorf("fig8 device curve invalid")
	}
	if len(cfg.WeightPattern) == 0 {
		return nil, fmt.Errorf("fig8 weight pattern must not be empty")
	}
	ledger, err := core.NewLedger(cfg.Params)
	if err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		// The paper-literal Cr ∝ 1/D mapping: difficulty stays elevated
		// until credit climbs back above zero, producing Fig 8's
		// pronounced post-attack gap.
		policy = core.DefaultInversePolicy(cfg.Params)
	}
	engine := core.NewEngine(ledger, policy)

	nodeAddr := identity.Address(hashutil.Sum([]byte("fig8-node")))
	start := time.Unix(1_700_000_000, 0).UTC()
	res := &Fig8Result{Config: cfg}

	powTime := cfg.Curve.At

	attacks := append([]time.Duration(nil), cfg.AttackTimes...)
	txCount := 0
	var txSeq uint64
	lastTxAt := time.Duration(0)      // node starts a PoW at t=0
	var pendingRecovery time.Duration // set when an attack happened
	recoveryPending := false

	for at := time.Duration(0); at <= cfg.Horizon; at += cfg.SampleEvery {
		now := start.Add(at)
		sample := Fig8Sample{At: at}

		// Attack scheduled in this window? The node's in-flight work is
		// wasted: it restarts PoW under the raised difficulty.
		if len(attacks) > 0 && at >= attacks[0] {
			ledger.RecordMalicious(nodeAddr, core.EventRecord{
				Behaviour: core.BehaviourDoubleSpend,
				At:        start.Add(attacks[0]),
				Detail:    "scripted double-spend",
			})
			sample.Attack = true
			lastTxAt = attacks[0]
			pendingRecovery = attacks[0]
			recoveryPending = true
			attacks = attacks[1:]
		}

		// Transaction completion model: the node continuously re-mines
		// against the difficulty its *current* credit demands, so it
		// completes once the elapsed time covers the PoW latency at the
		// (decaying) difficulty — recovery emerges from CrN's decay.
		if !sample.Attack {
			d := engine.DifficultyFor(nodeAddr, now)
			need := powTime(d)
			if need < cfg.TxPeriod {
				need = cfg.TxPeriod // sensor cadence floors the rate
			}
			if at-lastTxAt >= need {
				w := cfg.WeightPattern[txCount%len(cfg.WeightPattern)]
				txSeq++
				ledger.RecordTransaction(nodeAddr,
					hashutil.Sum([]byte(fmt.Sprintf("fig8-tx-%d", txSeq))), w, now)
				sample.TxWeight = w
				txCount++
				lastTxAt = at
				if recoveryPending {
					res.RecoveryGaps = append(res.RecoveryGaps, at-pendingRecovery)
					recoveryPending = false
				}
			}
		}

		c := engine.CreditOf(nodeAddr, now)
		sample.CrP = c.CrP
		sample.CrN = c.CrN
		sample.Cr = c.Cr
		sample.Difficulty = engine.Policy().DifficultyFor(c)
		res.Samples = append(res.Samples, sample)
	}
	return res, nil
}

// Table builds the figure: one row per sample, and one note per
// recovery gap.
func (r *Fig8Result) Table() *Table {
	label := "a"
	if len(r.Config.AttackTimes) > 1 {
		label = "b"
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 8(%s) — credit value vs time (λ1=%.1f λ2=%.1f ΔT=%s, %d attack(s))",
			label, r.Config.Params.Lambda1, r.Config.Params.Lambda2,
			r.Config.Params.DeltaT, len(r.Config.AttackTimes)),
		Header: []string{"t_s", "event", "w", "CrP", "CrN", "Cr", "difficulty"},
	}
	for _, s := range r.Samples {
		event := ""
		if s.Attack {
			event = "ATTACK"
		} else if s.TxWeight > 0 {
			event = "tx"
		}
		t.add(
			fmt.Sprintf("%.0f", s.At.Seconds()),
			event,
			ffloat(s.TxWeight),
			ffloat(s.CrP),
			ffloat(s.CrN),
			ffloat(s.Cr),
			fmt.Sprintf("%d", s.Difficulty),
		)
	}
	for i, gap := range r.RecoveryGaps {
		t.Notes = append(t.Notes, fmt.Sprintf("recovery gap after attack %d: %.0f s", i+1, gap.Seconds()))
	}
	return t
}
