package tangle

import (
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// EventKind classifies ledger events surfaced to observers.
type EventKind int

const (
	// EventConfirmed fires when a transaction's cumulative weight
	// crosses the confirmation threshold.
	EventConfirmed EventKind = iota + 1
	// EventLazyTips fires when a submission approves two stale,
	// already-approved parents (§III "lazy tips").
	EventLazyTips
	// EventDoubleSpend fires when a transfer conflicts with an earlier
	// spend of the same (account, seq) resource (§III).
	EventDoubleSpend
	// EventRejected fires when a transaction loses conflict resolution.
	EventRejected
	// EventApproved fires for each parent of a newly attached
	// transaction; Weight carries the parent's updated validation weight
	// w_k = 1 + direct approvers (consumed by the credit ledger, which
	// measures CrP by transaction weight).
	EventApproved
	// EventAttached fires once for every transaction that enters the
	// ledger — Attach, Restore and bootstrap alike — ahead of the other
	// events of its attach. Delivered in ledger order like every event, it
	// is the attachment order itself: every transaction is announced after
	// its parents and before its Attach returns (the node journals from
	// it).
	EventAttached
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventConfirmed:
		return "confirmed"
	case EventLazyTips:
		return "lazy-tips"
	case EventDoubleSpend:
		return "double-spend"
	case EventRejected:
		return "rejected"
	case EventApproved:
		return "approved"
	case EventAttached:
		return "attached"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a ledger occurrence. Node is the account the event is
// attributed to (for malicious events, the offender).
type Event struct {
	Kind    EventKind
	Node    identity.Address
	Tx      hashutil.Hash
	Related []hashutil.Hash
	At      time.Time
	// Weight is set on EventApproved: the parent's updated w_k.
	Weight float64
	// Txn is set on EventAttached and EventConfirmed: the transaction as
	// the ledger keeps it — its canonical encoding, shared and read-only.
	Txn txn.View
	// Seq is set on EventAttached: the attach sequence, which numbers every
	// attach of this ledger from 1 in the order the attaches are announced
	// (the node's journal acknowledges records by it).
	Seq uint64
}

// Observer receives ledger events. Events are collected under the
// ledger lock but delivered after it is released, in ledger order:
// deliveries are serialized (never two OnEvent calls at once) and every
// observer sees every event in the order the ledger produced it.
// Because no tangle lock is held during delivery, implementations may
// call back into the Tangle from OnEvent.
//
// Delivery is synchronous with respect to the mutation that produced
// the events for single-goroutine callers: when Attach returns, the
// attach's events have been delivered. Under concurrent attaches an
// event may instead be delivered by whichever goroutine currently holds
// the delivery baton, but always before that batch of Attach calls
// returns.
type Observer interface {
	OnEvent(ev Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev Event)

var _ Observer = ObserverFunc(nil)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// Observe registers an observer for subsequent events. Not safe to call
// concurrently with Attach; register observers during setup.
func (t *Tangle) Observe(o Observer) {
	t.observers = append(t.observers, o)
}

// deliverPending drains the event queue to observers. Called after the
// write lock is released. deliverMu is the delivery baton: it serializes
// observer calls across goroutines, and because events were enqueued in
// ledger order under the write lock and the queue is drained FIFO,
// per-observer delivery order always matches ledger order. The loop
// re-checks the queue after each batch so events enqueued by a
// concurrent mutation while we were delivering are never stranded.
//
// Lock order is deliverMu → t.mu (briefly, to swap the queue out);
// mutations enqueue under t.mu and call deliverPending only after
// releasing it, so the reverse order never occurs.
//
// The queue is double-buffered: the slice being delivered is never the
// one mutations append to (an observer may read the tangle, and another
// goroutine may attach, while a batch is out), and once delivered it is
// cleared — events pin encodings — and kept as the next swap's empty
// queue.
func (t *Tangle) deliverPending() {
	t.deliverMu.Lock()
	defer t.deliverMu.Unlock()
	for {
		t.mu.Lock()
		events := t.pendingEvents
		t.pendingEvents = t.spareEvents
		t.mu.Unlock()
		for _, ev := range events {
			for _, o := range t.observers {
				o.OnEvent(ev)
			}
		}
		clear(events)
		t.spareEvents = events[:0]
		if len(events) == 0 {
			return
		}
	}
}
