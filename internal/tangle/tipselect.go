package tangle

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// TipStrategy selects the two parents a new transaction will approve.
type TipStrategy int

const (
	// StrategyUniform picks two tips uniformly at random (URTS) — the
	// paper's Fig-6 step 4: "get two random tips information from
	// gateways". Default.
	StrategyUniform TipStrategy = iota + 1
	// StrategyWeightedWalk runs two independent IOTA-style MCMC random
	// walks toward the tips, biased by cumulative weight. Walks start
	// from the confirmed-frontier anchor set (see anchor.go) and fall
	// back to genesis when no anchor is usable, so the per-walk cost is
	// bounded by the unconfirmed frontier, not the DAG depth. It
	// resists lazy-tip inflation: a walk rarely ends on an abandoned
	// branch.
	StrategyWeightedWalk
)

// String implements fmt.Stringer.
func (s TipStrategy) String() string {
	switch s {
	case StrategyUniform:
		return "uniform"
	case StrategyWeightedWalk:
		return "weighted-walk"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Valid reports whether s names an implemented strategy.
func (s TipStrategy) Valid() bool {
	return s == StrategyUniform || s == StrategyWeightedWalk
}

// ErrNoTips is returned when the tip pool is empty (cannot happen after
// genesis unless every tip was rejected, which conflict resolution
// prevents — but callers still handle it).
var ErrNoTips = errors.New("tangle has no tips")

// walkAlpha biases the MCMC walk: the probability of stepping to
// approver j is proportional to exp(alpha * cumWeight_j).
const walkAlpha = 0.05

// walker carries the per-call state of one tip selection: an RNG and
// the step scratch buffers. Pooling walkers keeps SelectTips free of
// tangle-wide mutable state — selection needs only the read lock and
// allocates nothing on the steady path.
type walker struct {
	rng     *rand.Rand
	cand    []*vertex
	weights []float64
}

// newWalker seeds a pooled walker. Streams are derived from the
// configured seed and a creation sequence number, so a fixed Config.Seed
// still yields reproducible single-goroutine runs (one walker is created
// and reused), while concurrent callers get independent streams.
func (t *Tangle) newWalker() *walker {
	n := t.walkerSeq.Add(1)
	stream := uint64(t.seed) + n*0x9E3779B97F4A7C15 // golden-ratio stride
	return &walker{rng: rand.New(rand.NewSource(int64(stream)))}
}

// SelectTips returns two parent IDs using the given strategy. The two
// may coincide when only one tip exists.
//
// SelectTips takes only the read lock: any number of selections run
// concurrently with each other (and with other read paths); only
// mutations serialize against it.
func (t *Tangle) SelectTips(strategy TipStrategy) (trunk, branch hashutil.Hash, err error) {
	return t.selectTips(strategy, true)
}

// SelectTipsGenesisWalk is SelectTips with anchored walk starts
// disabled: weighted walks begin at genesis, as in the original MCMC
// formulation. It is the baseline the benchmark suite and the anchored
// walk property tests compare against; production callers want
// SelectTips.
func (t *Tangle) SelectTipsGenesisWalk(strategy TipStrategy) (trunk, branch hashutil.Hash, err error) {
	return t.selectTips(strategy, false)
}

func (t *Tangle) selectTips(strategy TipStrategy, anchored bool) (trunk, branch hashutil.Hash, err error) {
	w := t.walkers.Get().(*walker)
	defer t.walkers.Put(w)

	t.mu.RLock()
	defer t.mu.RUnlock()

	if len(t.tipsSorted) == 0 {
		return hashutil.Zero, hashutil.Zero, ErrNoTips
	}
	switch strategy {
	case StrategyWeightedWalk:
		trunk = t.weightedWalkLocked(w, anchored)
		branch = t.weightedWalkLocked(w, anchored)
	case StrategyUniform:
		trunk = t.uniformTipLocked(w)
		branch = t.uniformTipLocked(w)
	default:
		return hashutil.Zero, hashutil.Zero, fmt.Errorf("unknown tip strategy %v", strategy)
	}
	return trunk, branch, nil
}

// uniformTipLocked samples the sorted tip cache, which is maintained
// incrementally on mutation — no per-call collection or sorting.
func (t *Tangle) uniformTipLocked(w *walker) hashutil.Hash {
	return t.tipsSorted[w.rng.Intn(len(t.tipsSorted))]
}

// weightedWalkLocked performs one MCMC walk toward the tips, stepping
// to approvers with probability ∝ exp(α·w). With anchored set, the walk
// starts from the confirmed-frontier anchor set; a walk that ends
// off-tip (its cone died in rejections) restarts from genesis, and a
// genesis walk that ends off-tip falls back to uniform selection.
func (t *Tangle) weightedWalkLocked(w *walker, anchored bool) hashutil.Hash {
	var start *vertex
	if anchored {
		start = t.anchorStartLocked(w)
	}
	if start == nil {
		t.met.GenesisWalks.Inc()
		start = t.vertices.get(t.genesis[w.rng.Intn(2)])
	}
	if id, ok := t.walkFromLocked(w, start); ok {
		return id
	}
	if start.enc.Kind() != txn.KindGenesis {
		// Correctness fallback: the anchored cone has no reachable tip;
		// retry from genesis before giving up on the walk entirely.
		t.met.WalkFallbacks.Inc()
		if id, ok := t.walkFromLocked(w, t.vertices.get(t.genesis[w.rng.Intn(2)])); ok {
			return id
		}
	}
	// Walk ended on a vertex whose approvers are all rejected; fall
	// back to uniform selection.
	return t.uniformTipLocked(w)
}

// walkFromLocked walks from start to a sink and reports whether the
// sink is a tip.
func (t *Tangle) walkFromLocked(w *walker, start *vertex) (hashutil.Hash, bool) {
	cur := start
	steps := int64(0)
	for {
		next := t.stepLocked(w, cur)
		if next == nil {
			break
		}
		cur = next
		steps++
	}
	t.met.WalkLength.Set(steps)
	t.met.WalkLengthMax.StoreMax(steps)
	if _, isTip := t.tips[cur.id]; !isTip {
		return hashutil.Zero, false
	}
	return cur.id, true
}

func (t *Tangle) stepLocked(w *walker, cur *vertex) *vertex {
	candidates := w.cand[:0]
	for _, a := range cur.approvers {
		if !a.pruned && a.status != StatusRejected {
			candidates = append(candidates, a)
		}
	}
	w.cand = candidates[:0]
	if len(candidates) == 0 {
		return nil
	}
	// Softmax over cumulative weights, stabilized by the max.
	maxW := candidates[0].cumWeight
	for _, c := range candidates[1:] {
		if c.cumWeight > maxW {
			maxW = c.cumWeight
		}
	}
	weights := w.weights[:0]
	var total float64
	for _, c := range candidates {
		e := math.Exp(walkAlpha * float64(c.cumWeight-maxW))
		weights = append(weights, e)
		total += e
	}
	w.weights = weights[:0]
	r := w.rng.Float64() * total
	for i, wt := range weights {
		r -= wt
		if r <= 0 {
			return candidates[i]
		}
	}
	return candidates[len(candidates)-1]
}
