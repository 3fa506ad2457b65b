package tangle

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// TestRandomizedOperationsPreserveInvariants drives the tangle with a
// randomized mix of operations — honest attachments, double spends,
// lazy attachments, time jumps, both tip strategies — and checks the
// DESIGN.md §5 invariants after every step:
//
//  1. acyclicity (attachment order is topological);
//  2. cumulative weight is monotone;
//  3. confirmed status is sticky;
//  4. the tip pool never empties and never contains a rejected tx;
//  5. at most one spender per (account, seq) is non-rejected;
//  6. Size/Tips bookkeeping matches a recount.
func TestRandomizedOperationsPreserveInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomizedOps(t, seed, 150)
		})
	}
}

type propState struct {
	weights   map[hashutil.Hash]int
	confirmed map[hashutil.Hash]bool
	all       []hashutil.Hash
}

func runRandomizedOps(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.Seed = seed
	tg, key := newTangle(t, cfg, vc)

	spenders := make([]*identity.KeyPair, 3)
	for i := range spenders {
		spenders[i] = mustKey(t)
	}
	seqs := make([]uint64, len(spenders))

	st := &propState{
		weights:   make(map[hashutil.Hash]int),
		confirmed: make(map[hashutil.Hash]bool),
	}
	for _, id := range tg.Genesis() {
		st.all = append(st.all, id)
	}

	var staleTrunk, staleBranch hashutil.Hash

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // honest data attachment
			strategy := StrategyUniform
			if rng.Intn(2) == 0 {
				strategy = StrategyWeightedWalk
			}
			trunk, branch, err := tg.SelectTips(strategy)
			if err != nil {
				t.Fatalf("step %d: select: %v", step, err)
			}
			tx := buildTx(t, tg, key, trunk, branch, fmt.Sprintf("d-%d", step))
			info, err := tg.Attach(tx)
			if err != nil {
				t.Fatalf("step %d: attach: %v", step, err)
			}
			st.all = append(st.all, info.ID)
		case op < 7: // transfer, sometimes a deliberate double spend
			sp := rng.Intn(len(spenders))
			seq := seqs[sp]
			if rng.Intn(3) == 0 && seq > 0 {
				seq-- // conflict with the previous spend
			} else {
				seqs[sp]++
			}
			trunk, branch, err := tg.SelectTips(StrategyUniform)
			if err != nil {
				t.Fatalf("step %d: select: %v", step, err)
			}
			tx := transferTx(t, tg, spenders[sp], trunk, branch,
				key.Address(), uint64(rng.Intn(50)+1), seq)
			info, err := tg.Attach(tx)
			if err != nil {
				t.Fatalf("step %d: transfer attach: %v", step, err)
			}
			st.all = append(st.all, info.ID)
		case op < 8: // lazy attachment against remembered stale parents
			if staleTrunk.IsZero() {
				continue
			}
			tx := buildTx(t, tg, key, staleTrunk, staleBranch, fmt.Sprintf("lazy-%d", step))
			info, err := tg.Attach(tx)
			if err != nil {
				t.Fatalf("step %d: lazy attach: %v", step, err)
			}
			st.all = append(st.all, info.ID)
		case op < 9: // remember the current tips for later lazy use
			trunk, branch, err := tg.SelectTips(StrategyUniform)
			if err != nil {
				t.Fatalf("step %d: select: %v", step, err)
			}
			staleTrunk, staleBranch = trunk, branch
		default: // time advances
			vc.Advance(time.Duration(rng.Intn(40)) * time.Second)
		}
		checkInvariants(t, tg, st, step)
	}
}

func checkInvariants(t *testing.T, tg *Tangle, st *propState, step int) {
	t.Helper()

	// 1. Topological export order.
	seen := make(map[hashutil.Hash]bool)
	exported := tg.ExportRange(0, tg.Size())
	for _, tx := range exported {
		if tx.Kind != txn.KindGenesis {
			if !seen[tx.Trunk] || !seen[tx.Branch] {
				t.Fatalf("step %d: topological order violated", step)
			}
		}
		seen[tx.ID()] = true
	}

	// 2 & 3. Weight monotone, confirmation sticky.
	for _, id := range st.all {
		info, err := tg.InfoOf(id)
		if err != nil {
			t.Fatalf("step %d: info %s: %v", step, id.Short(), err)
		}
		if info.CumulativeWeight < st.weights[id] {
			t.Fatalf("step %d: weight of %s shrank %d → %d",
				step, id.Short(), st.weights[id], info.CumulativeWeight)
		}
		st.weights[id] = info.CumulativeWeight
		if st.confirmed[id] && info.Status != StatusConfirmed {
			t.Fatalf("step %d: %s regressed from confirmed", step, id.Short())
		}
		if info.Status == StatusConfirmed {
			st.confirmed[id] = true
		}
	}

	// 4. Tip pool sane.
	tips := tg.Tips()
	if len(tips) == 0 {
		t.Fatalf("step %d: empty tip pool", step)
	}
	for _, id := range tips {
		info, err := tg.InfoOf(id)
		if err != nil {
			t.Fatalf("step %d: tip info: %v", step, err)
		}
		if info.Status == StatusRejected {
			t.Fatalf("step %d: rejected tx %s in tip pool", step, id.Short())
		}
	}

	// 4b. Anchored and genesis-started weighted walks agree on what a
	// valid result is: both always land on current tips.
	inPool := make(map[hashutil.Hash]bool, len(tips))
	for _, id := range tips {
		inPool[id] = true
	}
	for name, sel := range map[string]func(TipStrategy) (hashutil.Hash, hashutil.Hash, error){
		"anchored": tg.SelectTips,
		"genesis":  tg.SelectTipsGenesisWalk,
	} {
		trunk, branch, err := sel(StrategyWeightedWalk)
		if err != nil {
			t.Fatalf("step %d: %s walk: %v", step, name, err)
		}
		if !inPool[trunk] || !inPool[branch] {
			t.Fatalf("step %d: %s walk returned non-tip", step, name)
		}
	}

	// 5. Conflict groups have at most one survivor.
	counted := make(map[txn.SpendKey]int)
	for _, tx := range exported {
		if tx.Kind != txn.KindTransfer {
			continue
		}
		tr, err := txn.TransferOf(tx)
		if err != nil {
			continue
		}
		info, err := tg.InfoOf(tx.ID())
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusRejected {
			counted[txn.SpendKeyOf(tx, tr)]++
		}
	}
	for k, n := range counted {
		if n > 1 {
			t.Fatalf("step %d: %d non-rejected spenders of seq %d", step, n, k.Seq)
		}
	}

	// 6. Bookkeeping matches recount.
	if got := tg.Size(); got != len(exported) {
		t.Fatalf("step %d: Size %d != export %d", step, got, len(exported))
	}
	stats := tg.StatsNow()
	if stats.Tips != len(tips) {
		t.Fatalf("step %d: stats tips %d != %d", step, stats.Tips, len(tips))
	}
}
