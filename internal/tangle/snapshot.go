package tangle

import (
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// Local snapshots bound ledger memory — the storage-growth half of the
// paper's §VIII "storage limitations" problem (the durability half is
// internal/store). Old, confirmed, fully-approved transactions are
// dropped from the in-memory DAG and move to the cold region (see
// cold.go): boundary roots stay pinned in memory while everything
// deeper is remembered only by the store-backed membership index. Three
// safety properties survive pruning:
//
//  1. duplicate suppression — a dropped transaction cannot be re-attached;
//  2. double-spend finality — a new spend conflicting with a dropped
//     (confirmed) spender still loses: the spend index outlives the
//     vertex and a cold group member always wins resolution;
//  3. lazy-tip hygiene — attaching to a pruned parent is rejected
//     outright (ErrSnapshottedParent): honest devices approve tips,
//     which are never snapshotted, so only attackers pinning ancient
//     parents and out-of-date sync peers ever see this error.
//
// A freshly joining node no longer needs a full-history peer: it can
// seed the boundary roots from a peer's snapshot manifest (see
// BeginBootstrap and the node-layer bootstrap protocol) and replay only
// the live region — O(frontier) instead of O(history).

// ErrSnapshottedParent reports an attachment to a pruned parent.
var ErrSnapshottedParent = errors.New("parent transaction was snapshotted away")

// SnapshotBefore drops confirmed transactions whose signed timestamp
// is before cutoff and whose direct approvers are all themselves
// confirmed or rejected. Genesis, tips and authorization lists are
// always retained. It returns the number of dropped vertices.
//
// The cutoff is the caller's (node.FullNode.Compact aligns it to a grid).
// Each test reads only the ledger — the transaction's bytes, its status
// and its approvers' — so every node holding the same ledger cuts the same
// boundary, however it came by the history (gossip, replay or sync).
//
// Signed time does not follow attachment order, so the whole resident
// order is scanned: O(resident vertices), which snapshots keep at
// O(frontier). A transaction stamped ahead of the cutoff stays resident
// until a later cutoff passes its stamp, which the node's edges bound.
func (t *Tangle) SnapshotBefore(cutoff time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()

	var drop []hashutil.Hash
	t.order.each(0, t.order.len(), func(v *vertex) bool {
		if v.status != StatusConfirmed || retainedKind(v.enc.Kind()) || !v.enc.Timestamp().Before(cutoff) {
			return true
		}
		if _, isTip := t.tips[v.id]; isTip {
			return true
		}
		for _, a := range v.approvers {
			if a.status == StatusPending {
				return true
			}
		}
		drop = append(drop, v.id)
		return true
	})
	if len(drop) == 0 {
		return 0
	}

	// Persist membership before mutating: if the cold index cannot
	// accept the batch, skip this round rather than prune IDs the node
	// would then forget.
	if t.cold != nil {
		if err := t.cold.AddBatch(drop, cutoff); err != nil {
			t.met.ColdErrors.Inc()
			return 0
		}
	}

	for _, id := range drop {
		v := t.vertices.get(id)
		v.pruned = true
		for _, pid := range [...]hashutil.Hash{v.enc.Trunk(), v.enc.Branch()} {
			if p, live := t.vertices.lookup(pid); live {
				for i, a := range p.approvers {
					if a == v {
						p.approvers[i] = prunedApprover
					}
				}
			}
		}
		t.vertices.remove(id)
		t.markColdLocked(id)
		// Every dropped vertex was confirmed; keep the incremental
		// stats and the anchor invariant (anchors are live) intact.
		t.nConfirmed--
		t.dropAnchorLocked(id)
	}
	t.nCold += len(drop)
	t.coldEpoch = cutoff

	// Compact the attachment-order indexes without the dropped vertices,
	// and recompute the boundary
	// roots: pruned parents still referenced by a live vertex. IDs
	// whose last live child was dropped this round leave the boundary —
	// the departed set is persisted (or kept in the fallback) so cold
	// membership survives the demotion.
	departed := t.boundary
	t.boundary = make(map[hashutil.Hash]struct{})
	t.order.compact()
	t.order.each(0, t.order.len(), func(v *vertex) bool {
		if v.enc.Kind() == txn.KindGenesis {
			return true
		}
		for _, pid := range [...]hashutil.Hash{v.enc.Trunk(), v.enc.Branch()} {
			if t.vertices.get(pid) == nil {
				t.boundary[pid] = struct{}{}
				delete(departed, pid)
			}
		}
		return true
	})
	if len(departed) > 0 && t.cold != nil {
		ids := make([]hashutil.Hash, 0, len(departed))
		for id := range departed {
			ids = append(ids, id)
		}
		if err := t.cold.AddBatch(ids, cutoff); err != nil {
			// Membership would be lost on failure: keep the departed
			// IDs pinned in the boundary instead.
			t.met.ColdErrors.Inc()
			for id := range departed {
				t.boundary[id] = struct{}{}
			}
		}
	}
	for _, x := range t.byKind {
		x.compact()
	}
	for _, x := range t.shardOrder {
		x.compact()
	}
	t.updateMemGaugesLocked()
	return len(drop)
}

// Restore re-inserts a journaled transaction during crash recovery,
// tolerating parents that a pre-crash snapshot folded away. The journal
// is written in attachment order and recovery truncates only its tail,
// so when a replayed record's parent is absent the only possible cause
// is journal compaction after a snapshot — the record sat on the
// snapshot boundary of the pre-crash node. Restore reconstructs that
// state: the missing parent's ID enters the boundary-root set
// (duplicate suppression and ErrSnapshottedParent semantics survive the
// restart) and the child attaches as a pruned-boundary root, exactly
// the dangling shape Snapshot leaves behind on a live node.
//
// Restore is for replaying the node's own trusted journal ONLY. Gossip
// and sync admission must keep using Attach, where an unknown parent is
// an ordering problem (defer) and a snapshotted parent a rejection —
// otherwise a malicious peer could graft orphan subtangles past the
// parent checks. (Bootstrap from a peer's manifest goes through
// BeginBootstrap, which widens Attach only for the manifest's boundary
// roots.)
func (t *Tangle) Restore(tx *txn.Transaction) (Info, error) {
	return t.RestoreShard(tx.View(), tx.ID(), 0)
}

// RestoreShard is Restore for the viewed transaction filed under id (see
// AttachShard), with the vertex tagged into the given tangle namespace
// (journal records carry no shard tag, so the replay layer re-derives the
// namespace from the transaction kind and the node's own shard
// assignment).
func (t *Tangle) RestoreShard(enc txn.View, id hashutil.Hash, shard uint32) (Info, error) {
	t.mu.Lock()
	info, err := t.restoreLocked(enc, id, shard)
	t.mu.Unlock()
	if err == nil {
		t.deliverPending()
	}
	return info, err
}

func (t *Tangle) restoreLocked(enc txn.View, id hashutil.Hash, shard uint32) (Info, error) {
	if t.vertices.get(id) != nil {
		return Info{}, fmt.Errorf("%w: %s", ErrDuplicate, id.Short())
	}
	if t.wasColdLocked(id) {
		return Info{}, fmt.Errorf("%w: %s (snapshotted)", ErrDuplicate, id.Short())
	}
	trunk := t.vertices.get(enc.Trunk())
	branch := t.vertices.get(enc.Branch())
	if trunk == nil {
		t.restoreBoundaryLocked(enc.Trunk())
	}
	if branch == nil {
		t.restoreBoundaryLocked(enc.Branch())
	}
	info := t.insertLocked(enc, id, trunk, branch, shard)
	t.updateMemGaugesLocked()
	return info, nil
}

// restoreBoundaryLocked pins a missing replayed parent as a boundary
// root. nCold counts distinct pruned IDs, so an ID already known cold
// (second child replayed, or present in a persisted cold index) is not
// recounted.
func (t *Tangle) restoreBoundaryLocked(pid hashutil.Hash) {
	if _, ok := t.boundary[pid]; ok {
		return
	}
	known := t.wasColdLocked(pid)
	t.boundary[pid] = struct{}{}
	t.markColdLocked(pid)
	if !known {
		t.nCold++
	}
}

// SnapshottedCount returns how many distinct transaction IDs have been
// pruned into the cold region over the node's lifetime.
func (t *Tangle) SnapshottedCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nCold
}

// WasSnapshotted reports whether id was pruned by a local snapshot (or
// seeded as a boundary root by bootstrap/restore).
func (t *Tangle) WasSnapshotted(id hashutil.Hash) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.wasColdLocked(id)
}
