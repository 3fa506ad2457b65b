package tangle

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// The hot/cold split bounds ledger memory. The in-memory DAG holds only
// the hot frontier; everything a snapshot prunes moves to the cold
// region, represented by two structures instead of the old
// grow-forever snapshotted map:
//
//   - boundary: the pruned IDs still referenced as a parent by at least
//     one live vertex — the snapshot boundary roots. This set is
//     O(frontier): it is recomputed from the live vertices on every
//     snapshot, so IDs leave it as their children are pruned in turn.
//   - cold: an optional store-backed membership index (see
//     store.ColdIndex) holding every pruned ID. Membership checks hit
//     memory first (boundary, then a bloom filter inside the index) and
//     touch disk only on a possible match, so the duplicate and
//     pruned-parent rejections of snapshot.go keep their exact
//     semantics at O(1) memory per node lifetime.
//
// Nodes without persistence (unit tests, short-lived tools) have no
// place to put a cold index; they fall back to an in-memory cold set,
// which reproduces the historical behaviour — exact and unbounded. For
// such nodes the full tangle already lives in memory, so the 32-byte
// IDs are not the dominant term.

// ColdStore is the membership index for pruned transaction IDs. The
// tangle writes each snapshot's pruned IDs to it and consults it when a
// membership check misses both the live vertices and the boundary set.
// Implementations must be safe for concurrent use; store.ColdIndex is
// the production implementation.
type ColdStore interface {
	// Contains reports whether id was ever added. It must have no
	// false negatives; a read error is returned rather than guessed
	// around.
	Contains(id hashutil.Hash) (bool, error)
	// AddBatch durably records ids as pruned at the given epoch
	// boundary. Duplicates across batches are permitted.
	AddBatch(ids []hashutil.Hash, epoch time.Time) error
	// Len returns the number of IDs added (duplicates may be counted
	// until the implementation compacts them).
	Len() int
}

// ErrNotFresh reports a bootstrap attempt on a tangle that already has
// history attached or pruned.
var ErrNotFresh = errors.New("tangle is not fresh")

// SetColdStore installs the store-backed cold membership index. Pruned
// IDs accumulated so far in the in-memory fallback (journal replay runs
// before persistence hands the index over) are flushed into it.
func (t *Tangle) SetColdStore(cs ColdStore) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cs == nil {
		return errors.New("nil cold store")
	}
	if len(t.coldMem) > 0 {
		ids := make([]hashutil.Hash, 0, len(t.coldMem))
		for id := range t.coldMem {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
		if err := cs.AddBatch(ids, t.coldEpoch); err != nil {
			return fmt.Errorf("flush cold fallback: %w", err)
		}
		t.coldMem = nil
	}
	t.cold = cs
	// A restarted node's replay rebuilt the boundary but not the prune
	// count: the durable index remembers how much history was ever
	// folded away, so Stats.Snapshotted survives the restart.
	if n := cs.Len(); n > t.nCold {
		t.nCold = n
	}
	t.updateMemGaugesLocked()
	return nil
}

// RestoreColdEpoch re-establishes the last snapshot cutoff after a
// restart (the epoch lives in the durable cold index, not the journal).
// Later instants win; a zero epoch is ignored.
func (t *Tangle) RestoreColdEpoch(epoch time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch.After(t.coldEpoch) {
		t.coldEpoch = epoch
	}
}

// wasColdLocked is the single membership check for the cold region:
// boundary first (hot, exact), then the cold store (bloom-filtered,
// exact on disk), then the in-memory fallback. A cold-store read error
// is counted and treated as "not cold" — the node degrades to
// re-admitting ancient history rather than halting admission.
func (t *Tangle) wasColdLocked(id hashutil.Hash) bool {
	if _, ok := t.boundary[id]; ok {
		return true
	}
	if t.cold != nil {
		ok, err := t.cold.Contains(id)
		if err != nil {
			t.met.ColdErrors.Inc()
			return false
		}
		return ok
	}
	_, ok := t.coldMem[id]
	return ok
}

// markColdLocked records id as pruned in the fallback set when no cold
// store is installed (with one, persistence happens batched inside
// Snapshot). It does not touch nCold — callers account for that.
func (t *Tangle) markColdLocked(id hashutil.Hash) {
	if t.cold == nil {
		t.coldMem[id] = struct{}{}
	}
}

// BoundaryRoots returns the current snapshot-boundary roots — pruned
// IDs still referenced as a parent by a live vertex — in sorted order.
// This is the structural part of a snapshot manifest: a bootstrapping
// peer that seeds these IDs can attach every live transaction.
func (t *Tangle) BoundaryRoots() []hashutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]hashutil.Hash, 0, len(t.boundary))
	for id := range t.boundary {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// BoundaryCount returns the current number of boundary roots.
func (t *Tangle) BoundaryCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.boundary)
}

// ColdEpoch returns the cutoff instant of the most recent snapshot that
// pruned anything (zero when the tangle has never pruned). All settled
// history signed before it has moved to the cold region.
func (t *Tangle) ColdEpoch() time.Time {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.coldEpoch
}

// BeginBootstrap seeds a fresh tangle with the boundary roots of a
// peer's snapshot manifest and switches attachment into bootstrap mode:
// until EndBootstrap, a transaction whose missing parent is one of the
// seeded boundary roots attaches as a pruned-boundary root, exactly as
// Restore reconstructs the shape on the peer. Parents that are neither
// live nor boundary roots keep failing with ErrUnknownParent, and every
// other admission rule is unchanged — bootstrap mode widens nothing but
// the boundary attach.
//
// It fails with ErrNotFresh unless the tangle holds only genesis and
// has never pruned: bootstrap replaces history, so there must be none.
func (t *Tangle) BeginBootstrap(boundary []hashutil.Hash, epoch time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.order.len() != len(t.genesis) || t.nCold != 0 {
		return fmt.Errorf("%w: %d vertices, %d cold", ErrNotFresh, t.order.len(), t.nCold)
	}
	for _, id := range boundary {
		if t.vertices.get(id) != nil {
			continue // genesis shared with the peer
		}
		if _, ok := t.boundary[id]; ok {
			continue
		}
		t.boundary[id] = struct{}{}
		t.markColdLocked(id)
		t.nCold++
	}
	t.coldEpoch = epoch
	t.bootstrapping = true
	t.updateMemGaugesLocked()
	return nil
}

// EndBootstrap leaves bootstrap mode, restoring strict parent checks.
func (t *Tangle) EndBootstrap() {
	t.mu.Lock()
	t.bootstrapping = false
	t.mu.Unlock()
}

// updateMemGaugesLocked refreshes the memory-footprint gauges. Called
// on the mutation paths that change the live or cold population.
func (t *Tangle) updateMemGaugesLocked() {
	t.met.ResidentVertices.Set(int64(t.vertices.len()))
	t.met.BoundaryRoots.Set(int64(len(t.boundary)))
	t.met.ColdTotal.Set(int64(t.nCold))
}

// retainedKinds: transactions of these kinds are never pruned by
// Snapshot. The authorization control plane must survive pruning so a
// snapshot-bootstrapped node can rebuild its device registry from the
// live region alone — the lists are manager-signed, tiny and rare
// relative to data traffic, so retaining them costs O(list updates),
// not O(history).
func retainedKind(k txn.Kind) bool {
	return k == txn.KindGenesis || k == txn.KindAuthorization
}
