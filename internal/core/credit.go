package core

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// TxRecord is one valid transaction attributed to a node: its approval
// weight and the instant it was observed. It is how a record travels
// (credit digests, DESIGN.md §16); the ledger keeps it packed as a txRec.
type TxRecord struct {
	ID     hashutil.Hash
	Weight float64
	At     time.Time
}

// txRec is a TxRecord as the ledger keeps it: 48 bytes, the instant as
// Unix nanoseconds and the weight as the exact float64 it was recorded
// with — credit reaches difficulty, on which every node must agree, so
// nothing here is rounded.
type txRec struct {
	id     hashutil.Hash
	at     int64
	weight float64
}

func (r txRec) export() TxRecord {
	return TxRecord{ID: r.id, Weight: r.weight, At: time.Unix(0, r.at)}
}

// EventRecord is one detected malicious behaviour.
type EventRecord struct {
	Behaviour Behaviour
	At        time.Time
	// Evidence optionally references the offending transaction(s).
	Evidence []hashutil.Hash
	// Detail is a human-readable description for operators.
	Detail string
}

// Credit is a node's evaluated credit at some instant.
type Credit struct {
	CrP float64 // positive part, Eqn 3
	CrN float64 // negative part (≤ 0), Eqn 4
	Cr  float64 // combined, Eqn 2
}

// Ledger records per-node behaviour and evaluates credit. It is safe for
// concurrent use. Records are append-only: "the credit value is
// calculated based on transaction weight and abnormal behaviours, which
// can be reflected from blockchain records, so the credit value cannot
// be forged or tampered" (§IV-B).
type Ledger struct {
	params Params

	mu    sync.RWMutex
	nodes map[identity.Address]*nodeRecord
	accts []*nodeRecord // by nodeRecord.slot
	index recIndex      // (account, ID) → position in the account's txs
}

type nodeRecord struct {
	slot   uint32
	txs    []txRec       // ordered by at
	events []EventRecord // ordered by At, capped at MaxEventsRetained

	// Rolling CrP window: txs[winLo:winHi] are exactly the records with
	// winNow−ΔT ≤ At ≤ winNow, and winSum is their summed weight. A
	// query advances the window to its own now — adding newly eligible
	// records at winHi, evicting expired ones at winLo — so repeated
	// evaluation is O(evicted+added) instead of O(window). Mutations
	// keep the invariant (or clear winValid when they cannot cheaply).
	winValid bool
	winLo    int
	winHi    int
	winSum   float64
	winNow   int64 // Unix nanoseconds

	// Carry for events evicted by the retention cap: evCarry is their
	// summed punishment coefficient, evCarryAt the newest evicted
	// timestamp. Decaying the whole carry by the newest evicted age
	// over-punishes (every evicted event is at least that old), which
	// is the safe direction — the paper requires that misbehaviour's
	// impact "cannot be eliminated over time".
	evCarry   float64
	evCarryAt time.Time

	// CrN cache: exact value at crnAt for event-version crnVer. Any
	// event mutation (insert or cap eviction) bumps evVer, so a stale
	// cache can never survive a change to the punished history.
	evVer    uint64
	crnValid bool
	crnAt    time.Time
	crnVer   uint64
	crn      float64
}

// NewLedger creates a credit ledger with the given parameters.
func NewLedger(params Params) (*Ledger, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("credit ledger params: %w", err)
	}
	if params.MaxEventsRetained == 0 {
		params.MaxEventsRetained = DefaultMaxEventsRetained
	}
	return &Ledger{
		params: params,
		nodes:  make(map[identity.Address]*nodeRecord),
		index:  recIndex{seed: maphash.MakeSeed()},
	}, nil
}

// Params returns the ledger's parameter set.
func (l *Ledger) Params() Params { return l.params }

func (l *Ledger) record(addr identity.Address) *nodeRecord {
	rec, ok := l.nodes[addr]
	if !ok {
		rec = &nodeRecord{slot: uint32(len(l.accts))}
		l.nodes[addr] = rec
		l.accts = append(l.accts, rec)
	}
	return rec
}

// RecordTransaction attributes a valid transaction with the given weight
// to node addr at instant at. Weights are clamped to [0, MaxWeight].
// Idempotent per ID: re-recording a known transaction keeps its original
// instant and only ever grows its weight, so concurrent duplicate
// deliveries (gossip + sync racing) cannot double-count.
func (l *Ledger) RecordTransaction(addr identity.Address, id hashutil.Hash, weight float64, at time.Time) {
	if weight < 0 {
		weight = 0
	}
	if weight > l.params.MaxWeight {
		weight = l.params.MaxWeight
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.record(addr)
	if idx, ok := l.index.find(rec, id); ok {
		rec.raiseWeight(idx, weight)
		return
	}
	tr := txRec{id: id, at: at.UnixNano(), weight: weight}
	rec.winNoteInsert(tr, l.params.DeltaT)
	l.insertTx(rec, tr)
}

// RemoveTransaction withdraws a previously recorded transaction — the
// node layer records before DAG attachment (so approval events always
// find the record) and must roll back when the attach fails.
func (l *Ledger) RemoveTransaction(addr identity.Address, id hashutil.Hash) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return
	}
	idx, ok := l.index.find(rec, id)
	if !ok {
		return
	}
	rec.winNoteRemove(idx, rec.txs[idx].weight)
	l.index.remove(l.accts, rec, idx)
	rec.txs = append(rec.txs[:idx], rec.txs[idx+1:]...)
	for i := idx; i < len(rec.txs); i++ {
		l.index.move(rec, i+1, i)
	}
}

// UpdateWeight revises the recorded weight of a transaction previously
// attributed to addr — invoked when the transaction gains approvals
// ("the weight of a transaction means the number of validation to this
// transaction"). Unknown IDs are ignored (the record may have been
// pruned). Weights only grow; a smaller update is discarded.
func (l *Ledger) UpdateWeight(addr identity.Address, id hashutil.Hash, weight float64) {
	if weight > l.params.MaxWeight {
		weight = l.params.MaxWeight
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return
	}
	if idx, ok := l.index.find(rec, id); ok {
		rec.raiseWeight(idx, weight)
	}
}

// raiseWeight sets the weight of the record at idx to weight if that is
// larger: weights only grow.
func (r *nodeRecord) raiseWeight(idx int, weight float64) {
	if weight > r.txs[idx].weight {
		r.winAdjustWeight(idx, weight-r.txs[idx].weight)
		r.txs[idx].weight = weight
	}
}

// RecordMalicious attributes a detected malicious behaviour to addr.
// Retention is capped at MaxEventsRetained per node: the oldest events
// are folded into the carry term (see nodeRecord) so the punished
// history stays bounded without ever punishing less.
func (l *Ledger) RecordMalicious(addr identity.Address, ev EventRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.record(addr)
	rec.events = insertEvent(rec.events, ev)
	for len(rec.events) > l.params.MaxEventsRetained {
		old := rec.events[0]
		rec.evCarry += l.params.Alpha(old.Behaviour)
		if old.At.After(rec.evCarryAt) {
			rec.evCarryAt = old.At
		}
		rec.events = append(rec.events[:0], rec.events[1:]...)
	}
	rec.evVer++
}

// insertTx keeps rec.txs ordered by at — a record goes after every one
// not later than it; records usually arrive in order, so the tail scan is
// O(1) amortized — and the index consistent. The slice grows by a quarter
// rather than append's doubling: it is most of what a record costs.
func (l *Ledger) insertTx(rec *nodeRecord, tr txRec) {
	n := len(rec.txs)
	if n == cap(rec.txs) {
		grown := make([]txRec, n, n+n/4+4)
		copy(grown, rec.txs)
		rec.txs = grown
	}
	i := n
	for i > 0 && tr.at < rec.txs[i-1].at {
		i--
	}
	rec.txs = rec.txs[:n+1]
	copy(rec.txs[i+1:], rec.txs[i:n])
	rec.txs[i] = tr
	for j := n; j > i; j-- { // the last first: slot values stay unique
		l.index.move(rec, j-1, j)
	}
	l.index.add(l.accts, rec, i)
}

func insertEvent(evs []EventRecord, ev EventRecord) []EventRecord {
	evs = append(evs, ev)
	for i := len(evs) - 1; i > 0 && evs[i].At.Before(evs[i-1].At); i-- {
		evs[i], evs[i-1] = evs[i-1], evs[i]
	}
	return evs
}

// winNoteInsert updates the rolling window for a record about to be
// inserted. Classification is by timestamp against the window the sums
// were last advanced to (winNow): sorted insertion guarantees a record
// older than the window lands at or before winLo, an in-window one
// within [winLo, winHi], and a future one at or after winHi — so the
// index range stays aligned without knowing the exact insert position.
func (r *nodeRecord) winNoteInsert(tr txRec, deltaT time.Duration) {
	if !r.winValid {
		return
	}
	switch {
	case tr.at < r.winNow-int64(deltaT): // already expired relative to winNow
		r.winLo++
		r.winHi++
	case tr.at > r.winNow: // not yet visible; next advance adds it
	default:
		r.winSum += tr.weight
		r.winHi++
	}
}

// winNoteRemove updates the rolling window for the record at idx being
// spliced out.
func (r *nodeRecord) winNoteRemove(idx int, weight float64) {
	if !r.winValid {
		return
	}
	switch {
	case idx < r.winLo:
		r.winLo--
		r.winHi--
	case idx < r.winHi:
		r.winSum -= weight
		r.winHi--
		if r.winLo == r.winHi {
			r.winSum = 0 // empty window: reset accumulated float drift
		}
	}
}

// winAdjustWeight adds delta to the window sum iff the record at idx is
// inside it. Window membership is exactly the index range [winLo,
// winHi) — that is the rolling invariant.
func (r *nodeRecord) winAdjustWeight(idx int, delta float64) {
	if r.winValid && idx >= r.winLo && idx < r.winHi {
		r.winSum += delta
	}
}

// PositiveCredit evaluates CrP (Eqn 3) for addr at instant now: the sum
// of transaction weights within the latest ΔT window, divided by ΔT in
// seconds. A node with no activity in the window scores 0 — "the system
// will not decrease the difficulty of PoW for it at the beginning".
//
// Evaluation is incremental: the per-node rolling window advances from
// its last position, so a query costs O(records that entered or left
// the window since) — O(1) amortized on the admission hot path —
// instead of rescanning the full ΔT window. Queries therefore take the
// write lock; the critical section is tiny.
func (l *Ledger) PositiveCredit(addr identity.Address, now time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return 0
	}
	return l.positiveLocked(rec, now)
}

// positiveLocked advances rec's rolling window to now and returns CrP.
// Caller holds the write lock.
func (l *Ledger) positiveLocked(rec *nodeRecord, at time.Time) float64 {
	now := at.UnixNano()
	windowStart := now - int64(l.params.DeltaT)
	if !rec.winValid || now < rec.winNow {
		// First query, post-prune, or a time rewind (virtual clocks in
		// tests and replays): rebuild the window by binary search.
		rec.winLo = rec.firstAtOrAfter(windowStart)
		rec.winHi = rec.winLo + sort.Search(len(rec.txs)-rec.winLo, func(i int) bool {
			return rec.txs[rec.winLo+i].at > now
		})
		rec.winSum = 0
		for _, tr := range rec.txs[rec.winLo:rec.winHi] {
			rec.winSum += tr.weight
		}
		rec.winValid = true
		rec.winNow = now
		return rec.winSum / l.params.DeltaT.Seconds()
	}
	// Advance: admit records that became visible (at ≤ now) ...
	for rec.winHi < len(rec.txs) && rec.txs[rec.winHi].at <= now {
		rec.winSum += rec.txs[rec.winHi].weight
		rec.winHi++
	}
	// ... and evict records that expired (at < now − ΔT).
	for rec.winLo < rec.winHi && rec.txs[rec.winLo].at < windowStart {
		rec.winSum -= rec.txs[rec.winLo].weight
		rec.winLo++
	}
	if rec.winLo == rec.winHi {
		rec.winSum = 0 // empty window: reset accumulated float drift
	}
	rec.winNow = now
	return rec.winSum / l.params.DeltaT.Seconds()
}

// rescanPositiveLocked is the from-scratch CrP reference: a binary
// search for the window start and a linear sum. It does not touch the
// rolling state; property tests pin the incremental path against it.
func (l *Ledger) rescanPositiveLocked(rec *nodeRecord, at time.Time) float64 {
	now := at.UnixNano()
	var sum float64
	for _, tr := range rec.txs[rec.firstAtOrAfter(now-int64(l.params.DeltaT)):] {
		if tr.at > now {
			break // ignore records from the future (virtual-clock replays)
		}
		sum += tr.weight
	}
	return sum / l.params.DeltaT.Seconds()
}

// firstAtOrAfter is the index of the first record not before instant t
// (Unix nanoseconds).
func (r *nodeRecord) firstAtOrAfter(t int64) int {
	return sort.Search(len(r.txs), func(i int) bool { return r.txs[i].at >= t })
}

// NegativeCredit evaluates CrN (Eqn 4) for addr at instant now:
//
//	CrN = − Σ_k α(B_k) · ΔT / (t − t_k)
//
// The age (t − t_k) is floored at MinEventAge so the punishment is large
// but finite at detection time. The contribution of each event decays
// hyperbolically "but different from CrP, the impact cannot be
// eliminated over time".
//
// The scan is bounded by MaxEventsRetained (evicted events contribute
// through the carry term), and the result is cached per node keyed on
// (instant, event version): any event mutation invalidates it, and a
// repeat query at the same instant — several difficulty evaluations in
// one admission batch — is a map-lookup hit.
func (l *Ledger) NegativeCredit(addr identity.Address, now time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return 0
	}
	return l.negativeLocked(rec, now)
}

// negativeLocked returns CrN at now, consulting and refreshing rec's
// cache. Caller holds the write lock.
func (l *Ledger) negativeLocked(rec *nodeRecord, now time.Time) float64 {
	if rec.crnValid && rec.crnVer == rec.evVer && rec.crnAt.Equal(now) {
		return rec.crn
	}
	crn := l.computeCrN(rec, now)
	rec.crn = crn
	rec.crnAt = now
	rec.crnVer = rec.evVer
	rec.crnValid = true
	return crn
}

// computeCrN evaluates Eqn 4 over the retained events plus the carry
// term for cap-evicted ones. Read-only on rec.
func (l *Ledger) computeCrN(rec *nodeRecord, now time.Time) float64 {
	var sum float64
	deltaT := l.params.DeltaT.Seconds()
	minAge := l.params.MinEventAge.Seconds()
	for _, ev := range rec.events {
		if ev.At.After(now) {
			continue
		}
		age := now.Sub(ev.At).Seconds()
		if age < minAge {
			age = minAge
		}
		sum += l.params.Alpha(ev.Behaviour) * deltaT / age
	}
	if rec.evCarry > 0 {
		age := now.Sub(rec.evCarryAt).Seconds()
		if age < minAge {
			age = minAge
		}
		sum += rec.evCarry * deltaT / age
	}
	return -sum
}

// CreditOf evaluates the full Eqn-2 credit for addr at now, through the
// incremental CrP window and the CrN cache.
func (l *Ledger) CreditOf(addr identity.Address, now time.Time) Credit {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return Credit{}
	}
	crP := l.positiveLocked(rec, now)
	crN := l.negativeLocked(rec, now)
	return Credit{
		CrP: crP,
		CrN: crN,
		Cr:  l.params.Lambda1*crP + l.params.Lambda2*crN,
	}
}

// RescanCredit evaluates credit from scratch — full window rescan, no
// rolling sums, no CrN cache (the carry term for cap-evicted events
// still applies; it is part of the definition once events are gone).
// It is the reference the property tests and the scenario oracle
// compare the incremental path against.
func (l *Ledger) RescanCredit(addr identity.Address, now time.Time) Credit {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return Credit{}
	}
	crP := l.rescanPositiveLocked(rec, now)
	crN := l.computeCrN(rec, now)
	return Credit{
		CrP: crP,
		CrN: crN,
		Cr:  l.params.Lambda1*crP + l.params.Lambda2*crN,
	}
}

// TransactionCount returns how many valid transactions are recorded for
// addr (all time).
func (l *Ledger) TransactionCount(addr identity.Address) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return 0
	}
	return len(rec.txs)
}

// Events returns a copy of the malicious-event history for addr.
func (l *Ledger) Events(addr identity.Address) []EventRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return nil
	}
	out := make([]EventRecord, len(rec.events))
	copy(out, rec.events)
	return out
}

// Nodes returns the addresses with any recorded history.
func (l *Ledger) Nodes() []identity.Address {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]identity.Address, 0, len(l.nodes))
	for addr := range l.nodes {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Prune drops transaction records older than keep before now. Event
// records are never pruned: the paper requires that misbehaviour "cannot
// be eliminated over time". Prune bounds light-ledger memory on
// long-running gateways; keep must be ≥ ΔT or CrP evaluation would lose
// in-window records (shorter values are raised to ΔT).
func (l *Ledger) Prune(now time.Time, keep time.Duration) int {
	if keep < l.params.DeltaT {
		keep = l.params.DeltaT
	}
	cutoff := now.Add(-keep).UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	pruned, kept := 0, 0
	for _, rec := range l.accts {
		idx := rec.firstAtOrAfter(cutoff)
		kept += len(rec.txs) - idx
		if idx > 0 {
			pruned += idx
			rec.txs = append(rec.txs[:0], rec.txs[idx:]...)
			if rec.winValid {
				if idx <= rec.winLo {
					// Only already-evicted records were dropped; the
					// window just shifts left.
					rec.winLo -= idx
					rec.winHi -= idx
				} else {
					// The cutoff cut into the window (possible when the
					// window lags the pruning clock): rebuild lazily on
					// the next query.
					rec.winValid = false
				}
			}
		}
	}
	if pruned > 0 {
		l.index.rebuild(l.accts, kept) // every position moved; this also shrinks the table
	}
	return pruned
}
