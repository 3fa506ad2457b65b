package chaos

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/gossip"
)

// NetFaults configures the fault mix a FaultyNetwork injects into
// outbound traffic. All probabilities are in [0,1]; the zero value
// injects nothing.
type NetFaults struct {
	// DropProb drops an outbound exchange entirely: a Broadcast to a
	// peer silently fails, a Request returns ErrInjectedDrop.
	DropProb float64
	// DupProb delivers an outbound datagram (a Broadcast, or a
	// MsgTransaction push) to a peer twice. Duplicate delivery is the
	// normal case for gossip retry paths, so nodes must be idempotent.
	DupProb float64
	// DelayMax, when positive, delays each outbound exchange by a
	// uniform duration in [0, DelayMax) before sending. Delay shifts
	// latency only: the per-peer delivery order is preserved.
	DelayMax time.Duration
	// ReorderProb swaps an outbound datagram with the next one to the
	// same peer by holding it back briefly, so peers observe
	// attachments out of issue order.
	ReorderProb float64
}

// FaultyNetwork decorates a gossip.Network with seeded, scriptable
// faults on the *outbound* path (inbound traffic already went through
// the remote sender's own faults; injecting on one side keeps a
// two-node exchange from being faulted twice). Per-peer Block models a
// directed partition; Heal clears all faults and blocks.
//
// Fault classes by traffic type: datagram traffic — Broadcasts and
// MsgTransaction Requests, the fan-out path full nodes actually use —
// is subject to the full mix (drop, duplicate, delay, reorder).
// Synchronous exchanges (sync requests) are droppable and delayable
// but never duplicated or reordered: the caller owns the reply.
//
// All randomness comes from the seed, and deliveries to one peer are
// chained FIFO in plan order, so a fault schedule composes the same
// way on every run with the same seed: a delay shifts latency but
// never implicitly reorders a peer's stream — only ReorderProb does,
// explicitly. Safe for concurrent use.
type FaultyNetwork struct {
	inner gossip.Network

	mu      sync.Mutex
	rng     *rand.Rand
	faults  NetFaults
	blocked map[string]bool
	held    map[string]gossip.Message // reorder buffer, one slot per peer
	fifo    map[string]chan struct{}  // per-peer delivery chain tail

	// Injected/Dropped/Duplicated/Delayed count injected events for
	// test assertions.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Reordered  int64
}

var _ gossip.Network = (*FaultyNetwork)(nil)

// NewFaultyNetwork wraps inner with the given fault mix and seed.
func NewFaultyNetwork(inner gossip.Network, faults NetFaults, seed int64) *FaultyNetwork {
	return &FaultyNetwork{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		faults:  faults,
		blocked: make(map[string]bool),
		held:    make(map[string]gossip.Message),
		fifo:    make(map[string]chan struct{}),
	}
}

// SetFaults replaces the fault mix.
func (n *FaultyNetwork) SetFaults(f NetFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// Block starts dropping every outbound exchange to peer — a directed
// partition. A datagram held back for reordering is dropped with the
// partition: it must not survive in a buffer and leak across after the
// link heals.
func (n *FaultyNetwork) Block(peer string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.held[peer]; ok {
		delete(n.held, peer)
		n.Dropped++
	}
	n.blocked[peer] = true
}

// Unblock lifts a Block.
func (n *FaultyNetwork) Unblock(peer string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, peer)
}

// Heal clears every fault: probabilities to zero, all peers unblocked,
// reorder buffers flushed (held messages are dropped — they were
// stale). The network behaves as the undecorated inner network
// afterwards.
func (n *FaultyNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = NetFaults{}
	n.blocked = make(map[string]bool)
	n.held = make(map[string]gossip.Message)
}

// Counters returns a consistent snapshot of the injected-event
// counters.
func (n *FaultyNetwork) Counters() (dropped, duplicated, delayed, reordered int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.Dropped, n.Duplicated, n.Delayed, n.Reordered
}

// Self implements gossip.Network.
func (n *FaultyNetwork) Self() string { return n.inner.Self() }

// Peers implements gossip.Network.
func (n *FaultyNetwork) Peers() []string { return n.inner.Peers() }

// SetHandler implements gossip.Network.
func (n *FaultyNetwork) SetHandler(h gossip.Handler) { n.inner.SetHandler(h) }

// Close implements gossip.Network.
func (n *FaultyNetwork) Close() error { return n.inner.Close() }

// sendPlan is one outbound exchange's fate, decided atomically under
// the lock. A plan that delivers anything carries a FIFO ticket: prev
// is the previous delivery to the same peer (wait for it), done must
// be closed once this delivery finishes so the chain never stalls.
type sendPlan struct {
	msgs  []gossip.Message
	delay time.Duration
	held  bool // message absorbed into the reorder buffer: deliver nothing, report success
	prev  <-chan struct{}
	done  chan struct{}
}

// plan decides, under the lock, what happens to one outbound message
// for one peer. datagram selects the full fault mix (dup/reorder on
// top of drop/delay); synchronous exchanges get drop/delay only.
func (n *FaultyNetwork) plan(peer string, msg gossip.Message, datagram bool) sendPlan {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.blocked[peer] {
		n.Dropped++
		return sendPlan{}
	}
	f := n.faults
	if f.DropProb > 0 && n.rng.Float64() < f.DropProb {
		n.Dropped++
		return sendPlan{}
	}
	p := sendPlan{msgs: []gossip.Message{msg}}
	if f.DelayMax > 0 {
		p.delay = time.Duration(n.rng.Int63n(int64(f.DelayMax)))
		n.Delayed++
	}
	if datagram {
		if held, ok := n.held[peer]; ok {
			// Release the held message after the current one: the swap.
			// Release is unconditional — a datagram held while faults were
			// active must not be stranded when ReorderProb drops to zero.
			delete(n.held, peer)
			p.msgs = append(p.msgs, held)
			n.Reordered++
		} else if f.ReorderProb > 0 && n.rng.Float64() < f.ReorderProb {
			// Hold this one back for the next datagram to this peer. The
			// sender reuses its batch once Request returns, so the held
			// datagram keeps a copy of the entries (their bytes are
			// immutable).
			msg.TxData = slices.Clone(msg.TxData)
			n.held[peer] = msg
			return sendPlan{held: true}
		}
		if f.DupProb > 0 && n.rng.Float64() < f.DupProb {
			p.msgs = append(p.msgs, msg)
			n.Duplicated++
		}
		// FIFO ticket: datagram deliveries to one peer happen in plan
		// order even when their random delays differ, so DelayMax
		// composed with any other fault cannot invert a peer's stream
		// by accident. Only datagrams join the chain: a synchronous
		// exchange may be issued from INSIDE a remote datagram handler
		// (push → handler → sync-back), so chaining it behind the very
		// delivery that triggered it would deadlock two nodes pushing
		// to each other. Datagram handlers never block on chained
		// traffic themselves, so the datagram-only chain always drains.
		p.prev = n.fifo[peer]
		p.done = make(chan struct{})
		n.fifo[peer] = p.done
	}
	return p
}

// deliver executes a plan against the inner network: wait out the
// injected delay, wait for the previous delivery to the same peer,
// then send each planned message. The returned reply is the last
// successful one (for duplicates the replies are identical; a released
// reorder message rides along after the caller's own, whose ack the
// node-side callers ignore).
func (n *FaultyNetwork) deliver(ctx context.Context, peer string, p sendPlan) (gossip.Message, bool, error) {
	if p.done != nil {
		defer close(p.done)
	}
	if p.delay > 0 {
		select {
		case <-time.After(p.delay):
		case <-ctx.Done():
			return gossip.Message{}, false, ctx.Err()
		}
	}
	if p.prev != nil {
		select {
		case <-p.prev:
		case <-ctx.Done():
			return gossip.Message{}, false, ctx.Err()
		}
	}
	var (
		reply gossip.Message
		err   error
		ok    bool
	)
	for _, m := range p.msgs {
		if r, rerr := n.inner.Request(ctx, peer, m); rerr == nil {
			reply = r
			ok = true
		} else if err == nil {
			err = rerr
		}
	}
	return reply, ok, err
}

// Broadcast implements gossip.Network: per-peer fault decisions, then
// per-peer Requests against the inner network so one peer's injected
// drop doesn't mask delivery to the others. Mirroring the inner
// Broadcast contract, it succeeds if any peer was reached or no peer
// was eligible.
func (n *FaultyNetwork) Broadcast(ctx context.Context, msg gossip.Message) error {
	peers := n.inner.Peers()
	if len(peers) == 0 {
		return n.inner.Broadcast(ctx, msg)
	}
	var (
		wg        sync.WaitGroup
		successMu sync.Mutex
		delivered int
		attempted int
		firstErr  error
	)
	for _, peer := range peers {
		p := n.plan(peer, msg, true)
		if len(p.msgs) == 0 {
			continue
		}
		attempted++
		wg.Add(1)
		go func(peer string, p sendPlan) {
			defer wg.Done()
			_, ok, err := n.deliver(ctx, peer, p)
			successMu.Lock()
			if ok {
				delivered++
			} else if firstErr == nil {
				firstErr = err
			}
			successMu.Unlock()
		}(peer, p)
	}
	wg.Wait()
	if attempted == 0 {
		// Every peer was dropped or held: the broadcast vanished, which
		// is exactly the fault being modelled. Report success — the
		// sender can't tell.
		return nil
	}
	if delivered == 0 && firstErr != nil {
		return firstErr
	}
	return nil
}

// Request implements gossip.Network. MsgTransaction requests are the
// fan-out datagrams full nodes push point-to-point, so they get the
// full datagram fault mix — including duplication and reordering; a
// message held back for reordering acks success to the sender (the
// datagram is "in flight" and rides out with the next push to the same
// peer). All other request types are synchronous exchanges whose reply
// the caller owns: droppable and delayable, never duplicated or
// reordered.
func (n *FaultyNetwork) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	p := n.plan(peer, msg, msg.Type == gossip.MsgTransaction)
	if p.held {
		return gossip.Message{}, nil
	}
	if len(p.msgs) == 0 {
		return gossip.Message{}, ErrInjectedDrop
	}
	reply, ok, err := n.deliver(ctx, peer, p)
	if !ok {
		if err == nil {
			err = ErrInjectedDrop
		}
		return gossip.Message{}, err
	}
	return reply, nil
}
