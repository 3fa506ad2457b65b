package authz

import (
	"fmt"
	"sort"
	"time"

	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// Historical list versions: the admission-evidence layer (DESIGN.md
// §15) judges a relayed transaction against the authorization list in
// force when it was first admitted — the list sequence derivable from
// its past cone — not against the receiver's momentary view. That
// needs a bounded window of past member-sets alongside the O(1)
// current view: sequence → members, fed by every manager-signed list
// the node observes (including ones stale for the current view, which
// are still authoritative history for their own sequence), and pruned
// on the same snapshot-epoch grid that bounds the tangle.

// DefaultMaxVersions bounds the retained historical member-sets. The
// window self-evicts lowest-sequence-first past this, raising the
// pruned floor, so registry memory stays O(window) however often the
// manager republishes.
const DefaultMaxVersions = 64

// Verdict is the outcome of an evidence-at-admission membership check.
type Verdict int

const (
	// VerdictUnauthorized: the sender is a member of NO retained list
	// version between the evidence sequence and the current one — a
	// definitive reject (Sybil, or evidence older than the prune floor).
	VerdictUnauthorized Verdict = iota
	// VerdictAuthorized: the sender is a member of the current view or
	// of some retained version at or above the evidence sequence.
	VerdictAuthorized
	// VerdictUnresolved: no membership hit, but at least one sequence in
	// the scan range has not been observed yet — the verdict may flip to
	// Authorized once the missing list arrives, so the transaction
	// should be quarantined, not rejected.
	VerdictUnresolved
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictUnauthorized:
		return "unauthorized"
	case VerdictAuthorized:
		return "authorized"
	case VerdictUnresolved:
		return "unresolved"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// memberView is one retained list version's member-set.
type memberView struct {
	devices  map[identity.Address]struct{}
	gateways map[identity.Address]struct{}
	// recordedAt is the list's (clamped) embedded timestamp — the same
	// deterministic stamp the credit ledger uses — so every node prunes
	// the window identically and a journal replay reconstructs the
	// pre-crash window exactly.
	recordedAt time.Time
}

func (v *memberView) member(addr identity.Address) bool {
	if _, ok := v.devices[addr]; ok {
		return true
	}
	_, ok := v.gateways[addr]
	return ok
}

// Observe validates a manager-signed authorization list and records it
// in the historical version window; if the sequence is newer than the
// applied one (or no list was ever applied) it also becomes the
// current view. Unlike Apply, a stale sequence is NOT an error: the
// list is authoritative history for its own sequence — exactly what a
// gapped or re-ordered delivery needs — and applied=false simply
// reports that the current view did not move. An already-recorded
// sequence is never overwritten.
//
// at should be the list's deterministic record stamp (its embedded
// timestamp clamped to the local clock), so prune decisions replay
// identically. The list is read from the viewed bytes, none of which the
// registry keeps.
func (r *Registry) Observe(v txn.View, at time.Time) (applied bool, err error) {
	applied, _, err = r.observe(v, at)
	return applied, err
}

// observe is the shared validation + window + current-view update
// behind Apply and Observe.
func (r *Registry) observe(v txn.View, at time.Time) (applied bool, list List, err error) {
	if v.Kind() != txn.KindAuthorization {
		return false, List{}, fmt.Errorf("%w: kind %v", ErrNotAuthList, v.Kind())
	}
	if sender := v.Sender(); sender != r.manager {
		return false, List{}, fmt.Errorf("%w: issuer %s", ErrNotManager, sender.Short())
	}
	list, err = DecodeList(v.Payload())
	if err != nil {
		return false, List{}, err
	}

	devices := make(map[identity.Address]identity.PublicKey, len(list.Devices))
	for _, hexKey := range list.Devices {
		pub, err := identity.DecodePublic(hexKey)
		if err != nil {
			return false, list, fmt.Errorf("%w: device %q: %v", ErrBadListedKey, hexKey, err)
		}
		devices[identity.AddressOf(pub)] = pub
	}
	gateways := make(map[identity.Address]identity.PublicKey, len(list.Gateways))
	for _, hexKey := range list.Gateways {
		pub, err := identity.DecodePublic(hexKey)
		if err != nil {
			return false, list, fmt.Errorf("%w: gateway %q: %v", ErrBadListedKey, hexKey, err)
		}
		gateways[identity.AddressOf(pub)] = pub
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	// Record into the historical window. Never overwrite: the first
	// observation of a sequence wins (all copies of a sequence are the
	// same manager-signed list; guarding anyway keeps a hostile replay
	// from perturbing history).
	if list.Seq > r.prunedThrough {
		if _, exists := r.versions[list.Seq]; !exists {
			view := &memberView{
				devices:    make(map[identity.Address]struct{}, len(devices)),
				gateways:   make(map[identity.Address]struct{}, len(gateways)),
				recordedAt: at,
			}
			for addr := range devices {
				view.devices[addr] = struct{}{}
			}
			for addr := range gateways {
				view.gateways[addr] = struct{}{}
			}
			r.versions[list.Seq] = view
			r.enforceCapLocked()
		}
	}

	// Current view: highest sequence wins; an older list parks in the
	// window above but never rolls the live view back.
	first := r.appliedAt.IsZero() && r.seq == 0
	if first || list.Seq > r.seq {
		r.seq = list.Seq
		r.appliedAt = at
		r.devices = devices
		r.gateways = gateways
		applied = true
	}
	return applied, list, nil
}

// enforceCapLocked evicts lowest-sequence versions past the cap,
// raising the pruned floor. The current sequence is never evicted.
func (r *Registry) enforceCapLocked() {
	maxV := r.maxVersions
	if maxV <= 0 {
		maxV = DefaultMaxVersions
	}
	for len(r.versions) > maxV {
		lowest := uint64(0)
		for seq := range r.versions {
			if seq == r.seq {
				continue
			}
			if lowest == 0 || seq < lowest {
				lowest = seq
			}
		}
		if lowest == 0 {
			return
		}
		delete(r.versions, lowest)
		if lowest > r.prunedThrough {
			r.prunedThrough = lowest
		}
	}
}

// EvidenceVerdict judges whether addr was authorized under the
// admission evidence: the highest authorization-list sequence in the
// transaction's past cone. The rule is monotone in this node's
// knowledge — addr is authorized iff it is a member of the current
// view (O(1) fast path) or of ANY retained version from the evidence
// sequence up to the current one. When no membership hit exists but a
// sequence in that range has not been observed yet, the verdict is
// Unresolved and gap names the first one (every sequence is
// ledger-backed, so a gap is always fillable by sync).
func (r *Registry) EvidenceVerdict(addr identity.Address, evidence uint64) (verdict Verdict, gap uint64) {
	if addr == r.manager {
		return VerdictAuthorized, 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, ok := r.devices[addr]; ok {
		return VerdictAuthorized, 0
	}
	if _, ok := r.gateways[addr]; ok {
		return VerdictAuthorized, 0
	}
	lo := evidence
	if lo < r.prunedThrough+1 {
		lo = r.prunedThrough + 1
	}
	if lo < 1 {
		lo = 1
	}
	var firstMissing uint64
	for s := lo; s <= r.seq; s++ {
		v, ok := r.versions[s]
		if !ok {
			if firstMissing == 0 {
				firstMissing = s
			}
			continue
		}
		if v.member(addr) {
			return VerdictAuthorized, 0
		}
	}
	if firstMissing != 0 {
		return VerdictUnresolved, firstMissing
	}
	return VerdictUnauthorized, 0
}

// PruneVersions drops historical versions whose record stamp is older
// than cutoff, keeping at least the minKeep newest sequences and
// always the current one, and raises the pruned floor past everything
// dropped. Call it on the snapshot-epoch grid (the node layer does,
// from Compact and recovery) so the window obeys the same bounded-
// memory invariant as the tangle. Returns the number of versions
// dropped.
func (r *Registry) PruneVersions(cutoff time.Time, minKeep int) int {
	if minKeep < 1 {
		minKeep = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.versions) <= minKeep {
		return 0
	}
	seqs := make([]uint64, 0, len(r.versions))
	for seq := range r.versions {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	dropped := 0
	// The minKeep newest (and the current sequence) survive regardless.
	keepFrom := len(seqs) - minKeep
	for i, seq := range seqs {
		if i >= keepFrom || seq == r.seq {
			continue
		}
		if r.versions[seq].recordedAt.Before(cutoff) {
			delete(r.versions, seq)
			if seq > r.prunedThrough {
				r.prunedThrough = seq
			}
			dropped++
		}
	}
	return dropped
}

// VersionsRetained reports the historical window size (the
// evidence_versions gauge on /healthz).
func (r *Registry) VersionsRetained() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.versions)
}

// PrunedThrough reports the window's pruned floor: every sequence at
// or below it has been discarded (or was never retained) and is
// excluded from evidence scans.
func (r *Registry) PrunedThrough() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.prunedThrough
}

// VersionSeqs returns the retained historical sequences, sorted
// ascending (test and diagnostic surface).
func (r *Registry) VersionSeqs() []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]uint64, 0, len(r.versions))
	for seq := range r.versions {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MemberAt reports whether addr is a member (device or gateway) of the
// retained version seq; ok is false when that version is not retained.
func (r *Registry) MemberAt(addr identity.Address, seq uint64) (member, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.versions[seq]
	if !ok {
		return false, false
	}
	return v.member(addr), true
}
