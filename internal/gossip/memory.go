package gossip

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Bus is an in-memory gossip fabric for simulations and tests. It
// supports latency injection and network partitions, and delivers
// messages synchronously in the caller's goroutine so simulations stay
// deterministic.
type Bus struct {
	mu         sync.RWMutex
	peers      map[string]*BusPeer
	latency    time.Duration
	partitions map[partitionKey]struct{}
	closed     bool
}

type partitionKey struct{ a, b string }

func keyFor(a, b string) partitionKey {
	if a > b {
		a, b = b, a
	}
	return partitionKey{a: a, b: b}
}

// NewBus creates an empty in-memory network.
func NewBus() *Bus {
	return &Bus{
		peers:      make(map[string]*BusPeer),
		partitions: make(map[partitionKey]struct{}),
	}
}

// SetLatency injects a fixed delivery delay for all messages.
func (b *Bus) SetLatency(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.latency = d
}

// Partition cuts the link between two peers (both directions).
func (b *Bus) Partition(a, c string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partitions[keyFor(a, c)] = struct{}{}
}

// Heal restores the link between two peers.
func (b *Bus) Heal(a, c string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.partitions, keyFor(a, c))
}

// Isolate cuts every link to the named peer — the single-point-of-
// failure injector used by the security experiments.
func (b *Bus) Isolate(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for other := range b.peers {
		if other != name {
			b.partitions[keyFor(name, other)] = struct{}{}
		}
	}
}

// Restore heals every link to the named peer.
func (b *Bus) Restore(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for other := range b.peers {
		delete(b.partitions, keyFor(name, other))
	}
}

// Join attaches a new peer with the given unique name.
func (b *Bus) Join(name string) (*BusPeer, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, dup := b.peers[name]; dup {
		return nil, fmt.Errorf("peer %q already joined", name)
	}
	p := &BusPeer{bus: b, name: name}
	b.peers[name] = p
	return p, nil
}

func (b *Bus) reachable(from, to string) (*BusPeer, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	peer, ok := b.peers[to]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if _, cut := b.partitions[keyFor(from, to)]; cut {
		return nil, fmt.Errorf("%w: %q ↮ %q", ErrPartitioned, from, to)
	}
	return peer, nil
}

// BusPeer is one node's attachment to a Bus.
type BusPeer struct {
	bus  *Bus
	name string

	mu      sync.RWMutex
	handler Handler
	closed  bool
	// lanes orders this peer's outbound transaction batches per
	// receiver (see deliver).
	lanes map[string]*fifo
}

var _ Network = (*BusPeer)(nil)

// Self implements Network.
func (p *BusPeer) Self() string { return p.name }

// SetHandler implements Network.
func (p *BusPeer) SetHandler(h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handler = h
}

// Peers implements Network.
func (p *BusPeer) Peers() []string {
	p.bus.mu.RLock()
	defer p.bus.mu.RUnlock()
	// Not len-1: this peer may itself have left the bus already (an
	// async pipeline can ask for peers after Close).
	out := make([]string, 0, len(p.bus.peers))
	for name := range p.bus.peers {
		if name != p.name {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Broadcast implements Network: best-effort delivery to every reachable
// peer. It returns an error only when every delivery failed.
func (p *BusPeer) Broadcast(ctx context.Context, msg Message) error {
	peers := p.Peers()
	if len(peers) == 0 {
		return nil
	}
	var lastErr error
	delivered := 0
	for _, name := range peers {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := p.deliver(name, msg); err != nil {
			lastErr = err
			continue
		}
		delivered++
	}
	if delivered == 0 && lastErr != nil {
		return fmt.Errorf("broadcast reached no peers: %w", lastErr)
	}
	return nil
}

// Request implements Network.
func (p *BusPeer) Request(ctx context.Context, peer string, msg Message) (Message, error) {
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	reply, err := p.deliver(peer, msg)
	if err != nil {
		return Message{}, err
	}
	if reply == nil {
		return Message{}, fmt.Errorf("%w: %q", ErrNoReply, peer)
	}
	return *reply, nil
}

// lane returns the order of this peer's transaction batches towards to.
func (p *BusPeer) lane(to string) *fifo {
	p.mu.RLock()
	f := p.lanes[to]
	p.mu.RUnlock()
	if f != nil {
		return f
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f = p.lanes[to]; f == nil {
		if p.lanes == nil {
			p.lanes = make(map[string]*fifo)
		}
		f = newFifo()
		p.lanes[to] = f
	}
	return f
}

// deliver hands msg to the named peer's handler in the caller's
// goroutine. Transaction batches from one peer to another are handled
// one at a time in the order their deliveries began, as on one TCP
// connection: concurrent callers take their place on entry, spend the
// injected latency side by side, and then run the handler in turn.
// Every other message type is delivered as it comes, so a slow sync
// page never holds a batch back.
func (p *BusPeer) deliver(to string, msg Message) (*Message, error) {
	if msg.Type != MsgTransaction {
		return p.deliverTo(to, msg, func() {})
	}
	place := p.lane(to).take()
	defer place.release()
	return p.deliverTo(to, msg, place.wait)
}

// deliverTo is deliver's body; turn is called just before the handler.
func (p *BusPeer) deliverTo(to string, msg Message, turn func()) (*Message, error) {
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	target, err := p.bus.reachable(p.name, to)
	if err != nil {
		return nil, err
	}
	p.bus.mu.RLock()
	latency := p.bus.latency
	p.bus.mu.RUnlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	turn()
	target.mu.RLock()
	h := target.handler
	targetClosed := target.closed
	target.mu.RUnlock()
	if targetClosed {
		return nil, fmt.Errorf("%w: %q", ErrClosed, to)
	}
	if h == nil {
		return nil, fmt.Errorf("%w on peer %q", ErrNoHandler, to)
	}
	return h.HandleGossip(p.name, msg)
}

// Close implements Network.
func (p *BusPeer) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()

	p.bus.mu.Lock()
	delete(p.bus.peers, p.name)
	p.bus.mu.Unlock()
	return nil
}

// Close shuts the whole bus down.
func (b *Bus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.peers = make(map[string]*BusPeer)
	return nil
}
