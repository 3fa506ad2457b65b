package tangle

import (
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// recordSpendLocked registers the spend consumed by a transfer vertex
// and, when a conflict appears, resolves it by cumulative weight: the
// heaviest spender of the (account, seq) resource stays pending (or
// confirmed), all others are rejected. It returns the events to emit.
//
// This realizes the paper's observation that "such behaviour will be
// detected and canceled by asynchronous consensus mechanism" while the
// credit mechanism (fed by the EventDoubleSpend) supplies the punishment
// the original consensus lacks.
func (t *Tangle) recordSpendLocked(v *vertex, tr txn.Transfer, now time.Time) []Event {
	key := v.enc.SpendKey(tr)
	t.spends[key] = append(t.spends[key], v.id)
	group := t.spends[key]
	if len(group) == 1 {
		return nil
	}
	if len(group) == 2 {
		t.nConflicts++ // key just became conflicting
	}

	// Conflict: attribute a double-spend event to the offender (all
	// conflicting txs share the sender, which is the spend key account).
	events := []Event{{
		Kind:    EventDoubleSpend,
		Node:    key.Account,
		Tx:      v.id,
		Related: relatedExcept(group, v.id),
		At:      now,
	}}
	events = append(events, t.resolveConflictLocked(group, now)...)
	return events
}

// resolveConflictLocked picks the winner among conflicting spends and
// rejects the rest. A snapshotted group member was confirmed before it
// was pruned and therefore wins unconditionally; otherwise confirmed
// transactions beat unconfirmed ones, then cumulative weight decides,
// with the lower ID winning ties. Every input is a function of the DAG,
// not of when this node saw it, so two nodes that hold the same group
// pick the same winner.
func (t *Tangle) resolveConflictLocked(group []hashutil.Hash, now time.Time) []Event {
	var winnerID hashutil.Hash
	snapshotWins := false
	for _, id := range group {
		if t.vertices.get(id) == nil && t.wasColdLocked(id) {
			snapshotWins = true
			winnerID = id
			break
		}
	}
	var winner *vertex
	if !snapshotWins {
		for _, id := range group {
			cand := t.vertices.get(id)
			if cand == nil {
				continue
			}
			if winner == nil || beats(cand, winner) {
				winner = cand
			}
		}
		if winner != nil {
			winnerID = winner.id
		}
	}
	var events []Event
	// A group is resolved again only when a new spend joins it. A
	// rejected spend whose branch has grown heavier by then is
	// reinstated when it wins that round; weight gained in between does
	// not re-run the resolution.
	if winner != nil && winner.status == StatusRejected {
		winner.status = StatusPending
		t.nRejected--
	}
	for _, id := range group {
		v := t.vertices.get(id)
		if v == nil || v == winner {
			continue
		}
		if v.status != StatusRejected {
			if v.status == StatusConfirmed {
				// Snapshotted-winner edge case: a confirmed loser is
				// demoted, so it no longer qualifies as a walk anchor.
				t.nConfirmed--
				t.dropAnchorLocked(v.id)
			}
			v.status = StatusRejected
			t.nRejected++
			t.removeTipLocked(v.id) // rejected txs must not be selected as tips
			t.restoreParentTipsLocked(v)
			events = append(events, Event{
				Kind:    EventRejected,
				Node:    v.enc.Sender(),
				Tx:      v.id,
				Related: []hashutil.Hash{winnerID},
				At:      now,
			})
		}
	}
	return events
}

// beats reports whether a should win conflict resolution over b.
func beats(a, b *vertex) bool {
	aConf := a.status == StatusConfirmed
	bConf := b.status == StatusConfirmed
	if aConf != bConf {
		return aConf
	}
	if a.cumWeight != b.cumWeight {
		return a.cumWeight > b.cumWeight
	}
	return a.id.Compare(b.id) < 0
}

// restoreParentTipsLocked re-tips the parents of a rejected vertex when
// every one of their approvers is itself rejected — otherwise rejecting
// the frontier's only vertex would leave the tangle with an empty tip
// pool and nothing for honest nodes to approve.
func (t *Tangle) restoreParentTipsLocked(v *vertex) {
	for _, pid := range [...]hashutil.Hash{v.enc.Trunk(), v.enc.Branch()} {
		p, ok := t.vertices.lookup(pid)
		if !ok || p.status == StatusRejected {
			continue
		}
		allRejected := true
		for _, a := range p.approvers {
			if !a.pruned && a.status != StatusRejected {
				allRejected = false
				break
			}
		}
		if allRejected {
			t.addTipLocked(pid)
		}
	}
}

func relatedExcept(group []hashutil.Hash, except hashutil.Hash) []hashutil.Hash {
	out := make([]hashutil.Hash, 0, len(group)-1)
	for _, id := range group {
		if id != except {
			out = append(out, id)
		}
	}
	return out
}

// ConflictsOf returns the IDs conflicting with id over the same spend
// resource, or nil when id has no conflicts.
func (t *Tangle) ConflictsOf(id hashutil.Hash) []hashutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.vertices.lookup(id)
	if !ok {
		return nil
	}
	tr, err := v.enc.Transfer()
	if err != nil {
		return nil
	}
	group := t.spends[v.enc.SpendKey(tr)]
	if len(group) <= 1 {
		return nil
	}
	return relatedExcept(group, id)
}
