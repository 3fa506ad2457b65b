package experiments

import (
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// LazyResistConfig parameterizes the tip-selection ablation against the
// paper's §III lazy-tips inflation attack: "a malicious entity can
// artificially inflate the number of tips by issuing many transactions
// that verify a fixed pair of transactions. This would make it possible
// for future transactions to select these tips with very high
// probability, abandoning the tips belonging to honest nodes."
//
// The experiment builds an honest frontier, injects LazyTips
// transactions all approving one ancient pair, and measures — for each
// tip-selection strategy — the probability that an honest device's next
// parent lands on an attacker tip.
type LazyResistConfig struct {
	// HonestTxs is the honest traffic volume before and after the
	// inflation (split evenly).
	HonestTxs int
	// LazyTips is the number of inflated tips the attacker creates.
	LazyTips int
	// Selections is the number of tip selections sampled per strategy.
	Selections int
}

// DefaultLazyResistConfig matches a small factory under a determined
// attacker: 200 honest transactions, 50 inflated tips.
func DefaultLazyResistConfig() LazyResistConfig {
	return LazyResistConfig{HonestTxs: 200, LazyTips: 50, Selections: 400}
}

// LazyResistRow is one strategy's measurement.
type LazyResistRow struct {
	Strategy tangle.TipStrategy
	// AttackerFrac is the fraction of sampled parents that were
	// attacker tips — the attack's success probability.
	AttackerFrac float64
	// TipShare is the attacker's share of the tip pool (the naive
	// expectation for uniform selection).
	TipShare float64
}

// LazyResistResult is the ablation outcome.
type LazyResistResult struct {
	Config LazyResistConfig
	Rows   []LazyResistRow
}

// RunLazyResist executes the ablation. Both strategies sample the same
// tangle state, so rows are directly comparable.
func RunLazyResist(cfg LazyResistConfig) (*LazyResistResult, error) {
	if cfg.HonestTxs < 10 || cfg.LazyTips < 1 || cfg.Selections < 1 {
		return nil, fmt.Errorf("lazy-resist workload too small")
	}
	key, err := identity.Generate()
	if err != nil {
		return nil, err
	}
	attacker, err := identity.Generate()
	if err != nil {
		return nil, err
	}
	// Production-ish confirmation: the honest chain keeps confirming,
	// so the walk's anchor set tracks the honest frontier. The lazy
	// attack pins an ancient pair far behind that frontier — anchored
	// walks never even visit it, making the measured resistance
	// structural (the walk starts past the attack) on top of the
	// weight bias (the walk is unlikely to step into light branches).
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	tcfg := tangle.DefaultConfig()
	tg, err := tangle.New(tcfg, key.Public(), vc)
	if err != nil {
		return nil, err
	}

	attach := func(issuer *identity.KeyPair, trunk, branch hashutil.Hash, tag string) (tangle.Info, error) {
		tx := &txn.Transaction{
			Trunk:     trunk,
			Branch:    branch,
			Timestamp: vc.Now(),
			Kind:      txn.KindData,
			Payload:   []byte(tag),
		}
		tx.Sign(issuer)
		return tg.Attach(tx)
	}

	// Phase 1: honest chain traffic; remember an early pair for the
	// attacker to pin.
	var pinTrunk, pinBranch hashutil.Hash
	last := tg.Genesis()[0]
	for i := 0; i < cfg.HonestTxs/2; i++ {
		vc.Advance(2 * time.Second)
		info, err := attach(key, last, last, fmt.Sprintf("honest-a-%d", i))
		if err != nil {
			return nil, err
		}
		if i == 2 {
			pinTrunk, pinBranch = last, last
		}
		last = info.ID
	}

	// Phase 2: the attacker inflates the tip pool against the pinned
	// ancient pair.
	attackerTips := make(map[hashutil.Hash]bool, cfg.LazyTips)
	for i := 0; i < cfg.LazyTips; i++ {
		info, err := attach(attacker, pinTrunk, pinBranch, fmt.Sprintf("lazy-%d", i))
		if err != nil {
			return nil, err
		}
		attackerTips[info.ID] = true
	}

	// Phase 3: more honest traffic keeps the legitimate frontier alive
	// (honest devices approve tips, which now are mostly attacker spam
	// under uniform selection — so extend the honest chain directly, as
	// a device with a weighted-walk gateway would).
	for i := 0; i < cfg.HonestTxs/2; i++ {
		vc.Advance(2 * time.Second)
		info, err := attach(key, last, last, fmt.Sprintf("honest-b-%d", i))
		if err != nil {
			return nil, err
		}
		last = info.ID
	}

	tips := tg.Tips()
	attackerInPool := 0
	for _, id := range tips {
		if attackerTips[id] {
			attackerInPool++
		}
	}
	tipShare := float64(attackerInPool) / float64(len(tips))

	res := &LazyResistResult{Config: cfg}
	for _, strategy := range []tangle.TipStrategy{tangle.StrategyUniform, tangle.StrategyWeightedWalk} {
		hits := 0
		for i := 0; i < cfg.Selections; i++ {
			trunk, branch, err := tg.SelectTips(strategy)
			if err != nil {
				return nil, err
			}
			if attackerTips[trunk] {
				hits++
			}
			if attackerTips[branch] {
				hits++
			}
		}
		res.Rows = append(res.Rows, LazyResistRow{
			Strategy:     strategy,
			AttackerFrac: float64(hits) / float64(2*cfg.Selections),
			TipShare:     tipShare,
		})
	}
	return res, nil
}

// Table builds the ablation.
func (r *LazyResistResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Lazy-tip inflation resistance — %d attacker tips vs %d honest txs, %d selections",
			r.Config.LazyTips, r.Config.HonestTxs, r.Config.Selections),
		Header: []string{"strategy", "attacker_tip_share", "attacker_selected_frac"},
	}
	for _, row := range r.Rows {
		t.add(
			row.Strategy.String(),
			fmt.Sprintf("%.2f", row.TipShare),
			fmt.Sprintf("%.3f", row.AttackerFrac),
		)
	}
	return t
}
