package tangle

import "github.com/b-iot/biot/internal/hashutil"

// The anchor set is the moving confirmed frontier that weighted walks
// start from (see tipselect.go). Starting a walk at genesis costs
// O(DAG depth) per selection; starting it at a recently confirmed
// vertex bounds the walk to the unconfirmed frontier, which stays
// roughly constant-sized as the tangle grows.
//
// Anchor invariant: every entry in t.anchors is a live (present in
// t.vertices, i.e. not snapshotted), confirmed, non-rejected vertex.
// The three mutation sites uphold it:
//
//   - propagateWeightLocked adds a vertex the moment it is confirmed;
//   - resolveConflictLocked drops a vertex that is rejected after
//     confirmation (snapshotted-winner edge case);
//   - Snapshot drops pruned vertices.
//
// A walk starting from an anchor therefore never begins in (and, since
// approver edges only point at live vertices, never steps into)
// snapshotted territory. Walks that end off-tip — every approver path
// from the anchor died in rejections — restart from genesis, so
// anchoring is an optimization with a correctness fallback, never a
// behaviour change for the caller.

// anchorSetSize bounds the anchor set. A handful of frontier vertices
// keeps walk entry points spread across recent branches without making
// the per-confirmation update noticeable.
const anchorSetSize = 8

// addAnchorLocked records a newly confirmed vertex as a walk anchor.
// When the set is full the lowest vertex is evicted, keeping the set on
// the highest (closest-to-tips) part of the confirmed frontier.
func (t *Tangle) addAnchorLocked(v *vertex) {
	if len(t.anchors) < anchorSetSize {
		t.anchors = append(t.anchors, v.id)
		t.anchorGaugesLocked()
		return
	}
	lowest, lowestHeight := -1, v.height+1
	for i, id := range t.anchors {
		if a, ok := t.vertices.lookup(id); ok {
			if a.height < lowestHeight {
				lowest, lowestHeight = i, a.height
			}
		} else {
			lowest, lowestHeight = i, -1 // stale entry: always replace
		}
	}
	if lowest >= 0 {
		t.anchors[lowest] = v.id
		t.anchorGaugesLocked()
	}
}

// dropAnchorLocked removes id from the anchor set if present — called
// when a confirmed vertex stops qualifying (rejection or snapshot).
func (t *Tangle) dropAnchorLocked(id hashutil.Hash) {
	for i, a := range t.anchors {
		if a == id {
			t.anchors[i] = t.anchors[len(t.anchors)-1]
			t.anchors = t.anchors[:len(t.anchors)-1]
			t.anchorGaugesLocked()
			return
		}
	}
}

// anchorGaugesLocked refreshes the exported anchor gauges.
func (t *Tangle) anchorGaugesLocked() {
	t.met.AnchorCount.Set(int64(len(t.anchors)))
	top := int32(0)
	for _, id := range t.anchors {
		if a, ok := t.vertices.lookup(id); ok && a.height > top {
			top = a.height
		}
	}
	t.met.AnchorHeight.Set(int64(top))
}

// anchorStartLocked picks a walk starting vertex from the anchor set,
// or nil when no usable anchor exists. Entries violating the anchor
// invariant are never returned (belt-and-braces: the mutation sites
// should already have removed them).
func (t *Tangle) anchorStartLocked(w *walker) *vertex {
	for range t.anchors {
		id := t.anchors[w.rng.Intn(len(t.anchors))]
		if a, ok := t.vertices.lookup(id); ok && a.status == StatusConfirmed {
			return a
		}
	}
	return nil
}
