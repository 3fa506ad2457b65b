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
	events []EventRecord // ordered by At, at most maxEventsRetained

	// Carry for events evicted by the retention cap: evCarry is their
	// summed punishment coefficient, evCarryAt the newest evicted
	// timestamp. Decaying the whole carry by the newest evicted age
	// over-punishes (every evicted event is at least that old), which
	// is the safe direction — the paper requires that misbehaviour's
	// impact "cannot be eliminated over time".
	evCarry   float64
	evCarryAt time.Time
}

// maxEventsRetained caps how many malicious events the ledger keeps per
// node, so that a long-lived attacker's record cannot make a credit query
// O(all-time events); older events fold into the carry term above.
const maxEventsRetained = 256

// NewLedger creates a credit ledger with the given parameters.
func NewLedger(params Params) (*Ledger, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("credit ledger params: %w", err)
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
	l.insertTx(rec, txRec{id: id, at: at.UnixNano(), weight: weight})
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
		r.txs[idx].weight = weight
	}
}

// RecordMalicious attributes a detected malicious behaviour to addr.
// Retention is capped at maxEventsRetained per node: the oldest events
// are folded into the carry term (see nodeRecord) so the punished
// history stays bounded without ever punishing less.
func (l *Ledger) RecordMalicious(addr identity.Address, ev EventRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.record(addr)
	rec.events = insertEvent(rec.events, ev)
	for len(rec.events) > maxEventsRetained {
		old := rec.events[0]
		rec.evCarry += l.params.Alpha(old.Behaviour)
		if old.At.After(rec.evCarryAt) {
			rec.evCarryAt = old.At
		}
		rec.events = append(rec.events[:0], rec.events[1:]...)
	}
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

// CreditOf evaluates the full Eqn-2 credit for addr at instant now from
// the records alone — one scan, no state kept between queries — so every
// node that holds the same records derives the same credit.
func (l *Ledger) CreditOf(addr identity.Address, now time.Time) Credit {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, ok := l.nodes[addr]
	if !ok {
		return Credit{}
	}
	crP := l.positive(rec, now)
	crN := l.negative(rec, now)
	return Credit{
		CrP: crP,
		CrN: crN,
		Cr:  l.params.Lambda1*crP + l.params.Lambda2*crN,
	}
}

// positive evaluates CrP (Eqn 3) at now: the summed weight of the
// records within the latest ΔT window, divided by ΔT in seconds — a
// binary search for the window's start and a sum up to now. A node with
// no activity in the window scores 0: "the system will not decrease the
// difficulty of PoW for it at the beginning".
func (l *Ledger) positive(rec *nodeRecord, at time.Time) float64 {
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

// negative evaluates CrN (Eqn 4) at now:
//
//	CrN = − Σ_k α(B_k) · ΔT / (t − t_k)
//
// over the retained events, plus the carry term for the ones the cap
// evicted. The age (t − t_k) is floored at MinEventAge so the punishment
// is large but finite at detection time. The contribution of each event
// decays hyperbolically "but different from CrP, the impact cannot be
// eliminated over time".
func (l *Ledger) negative(rec *nodeRecord, now time.Time) float64 {
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
		}
	}
	if pruned > 0 {
		l.index.rebuild(l.accts, kept) // every position moved; this also shrinks the table
	}
	return pruned
}
