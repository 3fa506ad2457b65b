package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestFig7ShapeExponential(t *testing.T) {
	cfg := Fig7Config{MinDifficulty: 2, MaxDifficulty: 12, Trials: 6, CostFactor: 1}
	res, err := RunFig7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Expected attempts column is exactly 2^d.
	for _, row := range res.Rows {
		if row.ExpectedAttempts != float64(uint64(1)<<uint(row.Difficulty)) {
			t.Errorf("expected attempts at %d = %v", row.Difficulty, row.ExpectedAttempts)
		}
		if row.MeanAttempts <= 0 {
			t.Errorf("mean attempts at %d = %v", row.Difficulty, row.MeanAttempts)
		}
	}
	// The curve grows: attempts at the top difficulty dwarf the bottom.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.MeanAttempts < 16*first.MeanAttempts {
		t.Errorf("no exponential growth: %v → %v attempts",
			first.MeanAttempts, last.MeanAttempts)
	}
}

func TestFig7Validation(t *testing.T) {
	if _, err := RunFig7(context.Background(), Fig7Config{MinDifficulty: 5, MaxDifficulty: 3, Trials: 1, CostFactor: 1}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RunFig7(context.Background(), Fig7Config{MinDifficulty: 1, MaxDifficulty: 2, Trials: 0, CostFactor: 1}); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestFig7ContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFig7(ctx, QuickFig7Config()); err == nil {
		t.Error("cancelled run succeeded")
	}
}

func TestFig8ReproducesPaperShape(t *testing.T) {
	res, err := RunFig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	attackAt := res.Config.AttackTimes[0]

	var sawAttack bool
	var minCr, maxCrP float64
	for _, s := range res.Samples {
		if s.Attack {
			sawAttack = true
		}
		if s.Cr < minCr {
			minCr = s.Cr
		}
		if s.CrP > maxCrP {
			maxCrP = s.CrP
		}
		// Before the attack: CrN = 0 and Cr overlaps λ1·CrP (the
		// paper: "the curve of Cr overlaps with that of CrP").
		if s.At < attackAt {
			if s.CrN != 0 {
				t.Fatalf("CrN = %v before attack at t=%v", s.CrN, s.At)
			}
			if diff := s.Cr - res.Config.Params.Lambda1*s.CrP; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("Cr does not overlap CrP before attack at t=%v", s.At)
			}
		}
	}
	if !sawAttack {
		t.Fatal("no attack sample")
	}
	if minCr > -5 {
		t.Errorf("Cr trough = %v, want a sharp decline", minCr)
	}
	if maxCrP <= 0 {
		t.Error("CrP never rose")
	}
	// One recovery gap, strictly positive and shorter than the horizon.
	if len(res.RecoveryGaps) != 1 {
		t.Fatalf("recovery gaps = %v", res.RecoveryGaps)
	}
	if res.RecoveryGaps[0] <= 2*res.Config.TxPeriod {
		t.Errorf("recovery gap %v not larger than normal cadence", res.RecoveryGaps[0])
	}
	// The final sample shows recovery in progress: Cr above the trough.
	final := res.Samples[len(res.Samples)-1]
	if final.Cr <= minCr {
		t.Error("no recovery by end of horizon")
	}
}

func TestFig8TwoAttacksHitHarder(t *testing.T) {
	one, err := RunFig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunFig8(Fig8bConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(two.RecoveryGaps) != 2 {
		t.Fatalf("two-attack gaps = %v", two.RecoveryGaps)
	}
	minOf := func(r *Fig8Result) float64 {
		m := 0.0
		for _, s := range r.Samples {
			if s.Cr < m {
				m = s.Cr
			}
		}
		return m
	}
	if minOf(two) > minOf(one) {
		t.Errorf("two attacks trough %v not deeper than one %v", minOf(two), minOf(one))
	}
	// Fewer transactions complete under two attacks.
	count := func(r *Fig8Result) int {
		n := 0
		for _, s := range r.Samples {
			if s.TxWeight > 0 {
				n++
			}
		}
		return n
	}
	if count(two) >= count(one) {
		t.Errorf("tx counts: two=%d one=%d", count(two), count(one))
	}
}

func TestFig8Validation(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.WeightPattern = nil
	if _, err := RunFig8(cfg); err == nil {
		t.Error("empty weight pattern accepted")
	}
	cfg = DefaultFig8Config()
	cfg.Horizon = 0
	if _, err := RunFig8(cfg); err == nil {
		t.Error("zero horizon accepted")
	}
	cfg = DefaultFig8Config()
	cfg.Curve = DeviceCurve{}
	if _, err := RunFig8(cfg); err == nil {
		t.Error("invalid curve accepted")
	}
}

// TestFig9PaperOrdering is the headline reproduction check: the four
// bars must order exactly as the paper's Fig 9.
func TestFig9PaperOrdering(t *testing.T) {
	res, err := RunFig9(DefaultFig9Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	original := res.Rows[0].AvgPowTime
	normal := res.Rows[1].AvgPowTime
	oneAttack := res.Rows[2].AvgPowTime
	twoAttacks := res.Rows[3].AvgPowTime

	if !(normal < original) {
		t.Errorf("credit normal %v not faster than original %v", normal, original)
	}
	if !(original < oneAttack) {
		t.Errorf("one attack %v not slower than original %v", oneAttack, original)
	}
	if !(oneAttack < twoAttacks) {
		t.Errorf("two attacks %v not slower than one %v", twoAttacks, oneAttack)
	}
	// Rough magnitude checks against the paper's ratios (0.17×, 2.4×,
	// 5.4×) with generous tolerance: shape, not absolutes.
	if normal.Seconds() > 0.5*original.Seconds() {
		t.Errorf("honest speedup too small: %v vs %v", normal, original)
	}
	if twoAttacks.Seconds() < 1.5*oneAttack.Seconds() {
		t.Errorf("second attack added too little: %v vs %v", twoAttacks, oneAttack)
	}
	// The original-PoW control sits at the anchor latency.
	if diff := original - res.Config.Curve.Base; diff > 100*time.Millisecond || diff < -100*time.Millisecond {
		t.Errorf("original PoW = %v, want ≈ %v", original, res.Config.Curve.Base)
	}
}

func TestFig9AttackersCompleteFewerTxs(t *testing.T) {
	res, err := RunFig9(DefaultFig9Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[3].Transactions >= res.Rows[1].Transactions {
		t.Errorf("attacker txs %d ≥ honest %d",
			res.Rows[3].Transactions, res.Rows[1].Transactions)
	}
}

func TestFig10LinearInLength(t *testing.T) {
	cfg := Fig10Config{MinExp: 10, MaxExp: 20, Trials: 3, Scheme: DefaultFig10Config().Scheme}
	res, err := RunFig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small := res.Rows[0]
	large := res.Rows[len(res.Rows)-1]
	if large.EncryptMean <= small.EncryptMean {
		t.Errorf("encryption time not growing: %v → %v",
			small.EncryptMean, large.EncryptMean)
	}
	// 1024× the data should cost well over 10× the time (linear regime
	// modulo fixed overhead at the small end).
	if large.EncryptMean < 10*small.EncryptMean {
		t.Errorf("growth too shallow: %v → %v", small.EncryptMean, large.EncryptMean)
	}
	for _, row := range res.Rows {
		if row.DecryptMean <= 0 {
			t.Errorf("decrypt mean at %d bytes = %v", row.Bytes, row.DecryptMean)
		}
	}
}

func TestFig10Validation(t *testing.T) {
	if _, err := RunFig10(context.Background(), Fig10Config{MinExp: 10, MaxExp: 5, Trials: 1, Scheme: 1}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RunFig10(context.Background(), Fig10Config{MinExp: 1, MaxExp: 2, Trials: 1, Scheme: 99}); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestSecurityMatrixAllDefended(t *testing.T) {
	res, err := RunSecurity(context.Background(), DefaultSecurityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("scenarios = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Pass {
			t.Errorf("threat %q not defended: %s", row.Threat, row.Detail)
		}
	}
}

func TestThroughputDAGBeatsChainOnLatency(t *testing.T) {
	res, err := RunThroughput(context.Background(), QuickThroughputConfig())
	if err != nil {
		t.Fatal(err)
	}
	dag, chain := res.Rows[0], res.Rows[1]
	if dag.MeanAccept >= chain.MeanAccept {
		t.Errorf("dag accept %v not below chain %v", dag.MeanAccept, chain.MeanAccept)
	}
	if dag.TPS <= 0 || chain.TPS <= 0 {
		t.Error("zero TPS")
	}
	if chain.ConfirmedFrac != 1.0 {
		t.Errorf("chain confirmed %v", chain.ConfirmedFrac)
	}
	if dag.ConfirmedFrac <= 0.5 {
		t.Errorf("dag confirmed %v", dag.ConfirmedFrac)
	}
}

func TestKeyDistExperimentAllPass(t *testing.T) {
	res, err := RunKeyDist(KeyDistConfig{Rounds: 5, TamperTrials: 4, Freshness: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Pass {
			t.Errorf("case %q failed: %+v", row.Case, row)
		}
	}
}

func TestRenderAndCSVNonEmpty(t *testing.T) {
	type rc interface {
		Render(*bytes.Buffer) error
	}
	_ = rc(nil)

	fig8, err := RunFig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := RunFig9(DefaultFig9Config())
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name   string
		render func(*bytes.Buffer) error
		csv    func(*bytes.Buffer) error
		want   string
	}{
		{"fig8", func(b *bytes.Buffer) error { return fig8.Render(b) },
			func(b *bytes.Buffer) error { return fig8.CSV(b) }, "ATTACK"},
		{"fig9", func(b *bytes.Buffer) error { return fig9.Render(b) },
			func(b *bytes.Buffer) error { return fig9.CSV(b) }, "original PoW"},
	}
	for _, c := range checks {
		var buf bytes.Buffer
		if err := c.render(&buf); err != nil {
			t.Fatalf("%s render: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s render missing %q", c.name, c.want)
		}
		var csvBuf bytes.Buffer
		if err := c.csv(&csvBuf); err != nil {
			t.Fatalf("%s csv: %v", c.name, err)
		}
		if lines := strings.Count(csvBuf.String(), "\n"); lines < 3 {
			t.Errorf("%s csv has %d lines", c.name, lines)
		}
	}
}

func TestDeviceCurve(t *testing.T) {
	c := DefaultPiCurve()
	if !c.Valid() {
		t.Fatal("default curve invalid")
	}
	if c.At(c.D0) != c.Base {
		t.Errorf("At(D0) = %v, want %v", c.At(c.D0), c.Base)
	}
	if c.At(c.D0+1) != time.Duration(float64(c.Base)*c.Ratio) {
		t.Error("ratio step wrong")
	}
	if c.At(c.D0-1) >= c.Base {
		t.Error("lower difficulty not faster")
	}
	b := Binary(time.Second, 10)
	if b.At(12) != 4*time.Second {
		t.Errorf("binary curve At(12) = %v", b.At(12))
	}
	if (DeviceCurve{}).Valid() {
		t.Error("zero curve valid")
	}
}

func TestScalabilitySweep(t *testing.T) {
	cfg := ScalabilityConfig{
		DeviceCounts: []int{1, 4},
		TxPerDevice:  5,
		Difficulty:   6,
		PayloadBytes: 32,
	}
	res, err := RunScalability(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Transactions != row.Devices*cfg.TxPerDevice {
			t.Errorf("devices=%d txs=%d", row.Devices, row.Transactions)
		}
		if row.TPS <= 0 || row.MeanAccept <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	if _, err := RunScalability(context.Background(), ScalabilityConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestLazyResistWeightedWalkWins(t *testing.T) {
	cfg := LazyResistConfig{HonestTxs: 100, LazyTips: 30, Selections: 150}
	res, err := RunLazyResist(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	uniform, walk := res.Rows[0], res.Rows[1]
	// The paper's warning: under naive selection the inflated tips are
	// chosen "with very high probability".
	if uniform.AttackerFrac < 0.5 {
		t.Errorf("uniform attacker fraction = %v, expected the attack to work", uniform.AttackerFrac)
	}
	// The weighted walk starves the stale branch.
	if walk.AttackerFrac > 0.1 {
		t.Errorf("weighted walk attacker fraction = %v, want near zero", walk.AttackerFrac)
	}
	if walk.AttackerFrac >= uniform.AttackerFrac {
		t.Error("weighted walk did not beat uniform selection")
	}
	if _, err := RunLazyResist(LazyResistConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestLambdaSweepStricterPunishment(t *testing.T) {
	cfg := LambdaSweepConfig{
		Lambda2s: []float64{0.25, 1.0},
		Base:     DefaultFig9Config(),
	}
	res, err := RunLambdaSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	lenient, strict := res.Rows[0], res.Rows[1]
	// "If we want to adopt strict punishment strategy ... set λ2 larger."
	if strict.PenaltyRatio <= lenient.PenaltyRatio {
		t.Errorf("λ2=1 ratio %.1f not above λ2=0.25 ratio %.1f",
			strict.PenaltyRatio, lenient.PenaltyRatio)
	}
	// λ2 does not tax honest nodes (their CrN is zero).
	if strict.HonestAvg != lenient.HonestAvg {
		t.Errorf("honest cost moved with λ2: %v vs %v",
			lenient.HonestAvg, strict.HonestAvg)
	}
	if _, err := RunLambdaSweep(LambdaSweepConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RunLambdaSweep(LambdaSweepConfig{Lambda2s: []float64{-1}, Base: DefaultFig9Config()}); err == nil {
		t.Error("negative λ2 accepted")
	}
}
