package core

import (
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Cross-shard credit reconciliation. Each region evaluates credit from
// the traffic it admits locally, so a device roaming between regions
// would otherwise arrive with an empty history and be re-issued the
// newcomer difficulty. Gateways therefore exchange credit digests over
// the backbone: bounded pages of per-account transaction records (the
// CrP window, Eqn 3) and malicious-behaviour events (CrN, Eqn 4).
//
// Merging routes every remote record through the same idempotent
// mutation paths local admission uses (RecordTransaction's
// per-ID/weight-only-grows semantics, RecordMalicious's capped event
// history), and credit is evaluated from the records alone, so a merged
// record counts exactly as a locally admitted one — reconcile adds no
// second bookkeeping path that could drift.

// DigestAccount is one node's shipped credit history: the transaction
// records still inside the positive-credit horizon and the retained
// malicious events.
type DigestAccount struct {
	Addr   identity.Address `json:"addr"`
	Txs    []TxRecord       `json:"txs,omitempty"`
	Events []EventRecord    `json:"events,omitempty"`
}

// CreditDigest is one page of a ledger's credit state, ordered by
// account address.
type CreditDigest struct {
	Accounts []DigestAccount `json:"accounts"`
}

// MergeStats reports what a digest merge actually changed.
type MergeStats struct {
	TxsMerged    int // new or weight-grown transaction records
	EventsMerged int // events not already known
}

// DigestPage exports up to maxAccounts accounts starting at index from
// of the address-sorted account order, shipping only transaction
// records at or after now−window (older records cannot influence CrP
// anymore and pruning drops them anyway). total is the account count at
// export time; more reports pages beyond the returned next offset.
func (l *Ledger) DigestPage(from, maxAccounts int, now time.Time, window time.Duration) (page CreditDigest, next, total int, more bool) {
	if window < l.params.DeltaT {
		window = l.params.DeltaT
	}
	cutoff := now.Add(-window).UnixNano()

	addrs := l.Nodes()
	total = len(addrs)
	if from < 0 {
		from = 0
	}
	if from >= total || maxAccounts <= 0 {
		return CreditDigest{}, from, total, false
	}
	end := from + maxAccounts
	if end > total {
		end = total
	}

	l.mu.RLock()
	defer l.mu.RUnlock()
	page.Accounts = make([]DigestAccount, 0, end-from)
	for _, addr := range addrs[from:end] {
		rec, ok := l.nodes[addr]
		if !ok {
			continue // pruned between Nodes() and here
		}
		acct := DigestAccount{Addr: addr}
		for _, tr := range rec.txs[rec.firstAtOrAfter(cutoff):] {
			acct.Txs = append(acct.Txs, tr.export())
		}
		if len(rec.events) > 0 {
			acct.Events = append(acct.Events, rec.events...)
		}
		if len(acct.Txs) > 0 || len(acct.Events) > 0 {
			page.Accounts = append(page.Accounts, acct)
		}
	}
	return page, end, total, end < total
}

// eventKey identifies an event for cross-ledger dedup. Two detections
// of the same behaviour at the same instant with the same description
// and primary evidence are one event, however many gateways shipped it.
type eventKey struct {
	behaviour Behaviour
	at        int64
	detail    string
	evidence  hashutil.Hash
}

func keyOf(ev EventRecord) eventKey {
	k := eventKey{behaviour: ev.Behaviour, at: ev.At.UnixNano(), detail: ev.Detail}
	if len(ev.Evidence) > 0 {
		k.evidence = ev.Evidence[0]
	}
	return k
}

// Merge folds a remote digest page into the ledger. Transaction records
// go through RecordTransaction (idempotent per ID, weight only grows);
// events are deduplicated against the account's retained history and
// dropped when not newer than the eviction carry's newest timestamp —
// an event that old has either been folded into the carry already or
// would be immediately re-evicted, and re-inserting it would punish the
// same behaviour twice.
func (l *Ledger) Merge(page CreditDigest) MergeStats {
	var st MergeStats
	for _, acct := range page.Accounts {
		for _, tr := range acct.Txs {
			before := l.recordedWeight(acct.Addr, tr.ID)
			l.RecordTransaction(acct.Addr, tr.ID, tr.Weight, tr.At)
			if after := l.recordedWeight(acct.Addr, tr.ID); before == nil || *after > *before {
				st.TxsMerged++
			}
		}
		if len(acct.Events) == 0 {
			continue
		}
		l.mu.Lock()
		rec := l.record(acct.Addr)
		known := make(map[eventKey]struct{}, len(rec.events))
		for _, ev := range rec.events {
			known[keyOf(ev)] = struct{}{}
		}
		carryAt := rec.evCarryAt
		l.mu.Unlock()
		for _, ev := range acct.Events {
			if _, dup := known[keyOf(ev)]; dup {
				continue
			}
			if !carryAt.IsZero() && !ev.At.After(carryAt) {
				continue
			}
			known[keyOf(ev)] = struct{}{}
			l.RecordMalicious(acct.Addr, ev)
			st.EventsMerged++
		}
	}
	return st
}

// recordedWeight returns the currently recorded weight for (addr, id),
// or nil when unknown.
func (l *Ledger) recordedWeight(addr identity.Address, id hashutil.Hash) *float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return nil
	}
	idx, ok := l.index.find(rec, id)
	if !ok {
		return nil
	}
	w := rec.txs[idx].weight
	return &w
}
