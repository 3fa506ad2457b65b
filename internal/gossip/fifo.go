package gossip

import "sync"

// fifo admits holders one at a time in the order they took a ticket —
// a mutex whose queue order is fixed at arrival, where sync.Mutex lets
// a late arrival barge past a parked waiter. Both transports use it to
// keep one (sender, receiver) pair's messages in the order their
// Requests were made, however many are in flight at once: the full
// node's windowed sender relies on a batch never overtaking the batch
// that carries its parents.
type fifo struct {
	mu      sync.Mutex
	turn    sync.Cond
	next    uint64 // next ticket to hand out
	serving uint64 // ticket whose turn it is
}

func newFifo() *fifo {
	f := &fifo{}
	f.turn.L = &f.mu
	return f
}

// ticket is one place in a fifo's order.
type ticket struct {
	f *fifo
	n uint64
}

// take claims the next place in the order without blocking.
func (f *fifo) take() ticket {
	f.mu.Lock()
	t := ticket{f: f, n: f.next}
	f.next++
	f.mu.Unlock()
	return t
}

// wait blocks until every earlier ticket has been released. The holder
// may call it any number of times, or not at all, before release.
func (t ticket) wait() {
	t.f.mu.Lock()
	t.awaitTurnLocked()
	t.f.mu.Unlock()
}

// release waits for the ticket's turn if the holder has not already,
// then hands the turn to the next ticket. Every ticket taken must be
// released exactly once, on error paths too, or the order stalls.
func (t ticket) release() {
	t.f.mu.Lock()
	t.awaitTurnLocked()
	t.f.serving++
	t.f.turn.Broadcast()
	t.f.mu.Unlock()
}

func (t ticket) awaitTurnLocked() {
	for t.f.serving != t.n {
		t.f.turn.Wait()
	}
}
