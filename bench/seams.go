package main

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// The benchmark measures the program only from outside, through the
// three interfaces a node already takes in its public configuration:
// node.Gateway (device ↔ gateway), chaos.FS (gateway ↔ disk) and
// gossip.Network with its gossip.Handler (gateway ↔ peers). Each seam
// below forwards every call unchanged; what it adds is a clock reading
// on either side, a count, and — for the network — the modelled link
// delay.

// ---- device ↔ gateway ------------------------------------------------

type callKind uint8

const (
	callTips callKind = iota
	callGetTx
	callDifficulty
	callSubmit
	numCallKinds
)

type gatewayCall struct {
	kind       callKind
	start, end time.Time
}

// gatewayTarget is the gateway a fleet of devices talks to. The
// recovery workload takes it down for the length of an outage — device
// calls wait, as a device retrying an unreachable gateway would — and
// points it at the rebuilt gateway afterwards.
type gatewayTarget struct {
	gw atomic.Pointer[node.Gateway]
	// direct, when set, is the FullNode behind an RPC gateway: traced
	// runs shadow one read call in shadowEvery straight into it, and the
	// difference is what the RPC layer costs.
	direct atomic.Pointer[node.FullNode]
	trace  atomic.Pointer[tracer]
	served atomic.Int64 // submissions that returned without error

	// gate is held shared by every device call and exclusively for an
	// outage, so an outage begins once the calls in flight have returned.
	gate sync.RWMutex

	mu     sync.Mutex
	shadow [numCallKinds]shadowStat
	reads  int
}

type shadowStat struct {
	n             int
	viaGW, direct time.Duration
}

const shadowEvery = 50

func (g *gatewayTarget) set(gw node.Gateway) { g.gw.Store(&gw) }

// shadowDue reports whether this read call is one of the sampled ones.
func (g *gatewayTarget) shadowDue() *node.FullNode {
	direct := g.direct.Load()
	if direct == nil {
		return nil
	}
	g.mu.Lock()
	g.reads++
	due := g.reads%shadowEvery == 0
	g.mu.Unlock()
	if !due {
		return nil
	}
	return direct
}

// deviceGateway is one device's view of the gateway. A LightNode is
// strictly sequential, so the calls of the reading in flight collect in
// calls without a lock; the load driver takes them when the reading
// returns.
type deviceGateway struct {
	target *gatewayTarget
	calls  []gatewayCall
}

var _ node.Gateway = (*deviceGateway)(nil)

// call forwards one gateway call. Traced runs time it and, for the
// sampled read calls behind an RPC gateway, repeat it straight into the
// FullNode.
func (d *deviceGateway) call(kind callKind, via func(node.Gateway), direct func(*node.FullNode)) {
	t := d.target
	// The clock starts before the gate: a call held back by an outage
	// took that long, as far as the device is concerned.
	start := time.Now()
	t.gate.RLock()
	defer t.gate.RUnlock()
	gw := *t.gw.Load()
	if t.trace.Load() == nil {
		via(gw)
		return
	}
	via(gw)
	end := time.Now()
	d.calls = append(d.calls, gatewayCall{kind: kind, start: start, end: end})
	if direct == nil {
		return
	}
	if full := t.shadowDue(); full != nil {
		shadowStart := time.Now()
		direct(full)
		took := time.Since(shadowStart)
		t.mu.Lock()
		s := &t.shadow[kind]
		s.n++
		s.viaGW += end.Sub(start)
		s.direct += took
		t.mu.Unlock()
	}
}

func (d *deviceGateway) TipsForApproval() (trunk, branch hashutil.Hash, err error) {
	d.call(callTips,
		func(gw node.Gateway) { trunk, branch, err = gw.TipsForApproval() },
		func(full *node.FullNode) { _, _, _ = full.TipsForApproval() })
	return trunk, branch, err
}

func (d *deviceGateway) DifficultyFor(addr identity.Address) (difficulty int) {
	d.call(callDifficulty,
		func(gw node.Gateway) { difficulty = gw.DifficultyFor(addr) },
		func(full *node.FullNode) { _ = full.DifficultyFor(addr) })
	return difficulty
}

func (d *deviceGateway) GetTransaction(id hashutil.Hash) (t *txn.Transaction, err error) {
	d.call(callGetTx,
		func(gw node.Gateway) { t, err = gw.GetTransaction(id) },
		func(full *node.FullNode) { _, _ = full.GetTransaction(id) })
	return t, err
}

func (d *deviceGateway) Submit(ctx context.Context, t *txn.Transaction) (info tangle.Info, err error) {
	d.call(callSubmit, func(gw node.Gateway) { info, err = gw.Submit(ctx, t) }, nil)
	if err == nil {
		d.target.served.Add(1)
	}
	return info, err
}

func (d *deviceGateway) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	d.target.gate.RLock()
	defer d.target.gate.RUnlock()
	return (*d.target.gw.Load()).TransactionsByKind(kind, offset)
}

// ---- gateway ↔ disk --------------------------------------------------

// diskStats counts what one node asked of its disk.
type diskStats struct {
	writes, writeBytes, writeNS atomic.Int64
	syncs, syncNS               atomic.Int64
}

// tracedFS forwards to inner and counts writes and syncs.
type tracedFS struct {
	inner chaos.FS
	stats *diskStats
	trace *atomic.Pointer[tracer]
}

var _ chaos.FS = (*tracedFS)(nil)

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *tracedFS) Remove(name string) error             { return f.inner.Remove(name) }

type tracedFile struct {
	chaos.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	end := time.Now()
	f.fs.stats.writes.Add(1)
	f.fs.stats.writeBytes.Add(int64(n))
	f.fs.stats.writeNS.Add(int64(end.Sub(start)))
	f.fs.trace.Load().add("store.write", start, end, -1, hashutil.Hash{})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.fs.stats.syncs.Add(1)
	f.fs.stats.syncNS.Add(int64(end.Sub(start)))
	f.fs.trace.Load().add("store.fsync", start, end, -1, hashutil.Hash{})
	return err
}

// ---- gateway ↔ peers -------------------------------------------------

// arrival is one transaction seen attached on a node after a gossip
// message was handled.
type arrival struct {
	id hashutil.Hash
	at time.Time
}

// batchSend is one transaction batch handed to the transport (traced
// runs only): which peer, when, and which transactions it carried.
type batchSend struct {
	peer string
	at   time.Time
	ids  []hashutil.Hash
}

// batchHandle is one transaction batch handled by a node (traced runs
// only).
type batchHandle struct {
	start, end time.Time
	ids        []hashutil.Hash
}

// peerStats is what one node's network seam saw.
type peerStats struct {
	mu sync.Mutex
	// outbound
	txMessages int64 // messages carrying transactions
	txSent     int64
	requestDur []time.Duration // transaction batches, traced runs
	sends      []batchSend     // traced runs
	// inbound
	txBatches   int64
	txHandled   int64
	handleBusy  time.Duration // transaction batches only
	arrivals    []arrival
	unattached  []hashutil.Hash // handled but not attached yet (orphans)
	handles     []batchHandle   // traced runs
	contains    func(hashutil.Hash) bool
	observeRecv bool // record arrivals (off on the node that admits)
	hub         *arrivalHub
}

// arrivalHub lets a closed-loop session wait until its reading is
// attached on every relay.
type arrivalHub struct {
	relays int

	mu      sync.Mutex
	seen    map[hashutil.Hash]int
	waiters map[hashutil.Hash]chan struct{}
}

func newArrivalHub(relays int) *arrivalHub {
	return &arrivalHub{relays: relays, seen: make(map[hashutil.Hash]int), waiters: make(map[hashutil.Hash]chan struct{})}
}

func (h *arrivalHub) arrived(id hashutil.Hash) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.seen[id]++
	if h.seen[id] >= h.relays {
		if ch, ok := h.waiters[id]; ok {
			close(ch)
			delete(h.waiters, id)
		}
	}
	h.mu.Unlock()
}

// wait blocks until id has arrived on every relay or ctx ends.
func (h *arrivalHub) wait(ctx context.Context, id hashutil.Hash) error {
	h.mu.Lock()
	if h.seen[id] >= h.relays {
		h.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	h.waiters[id] = ch
	h.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func hashAll(raw [][]byte) []hashutil.Hash {
	ids := make([]hashutil.Hash, len(raw))
	for i, r := range raw {
		ids[i] = hashutil.Sum(r)
	}
	return ids
}

// linkNet is the benchmark's gossip.Network: the production transport
// with a fixed one-way delay per message, first in first out per peer.
type linkNet struct {
	inner gossip.Network
	delay time.Duration
	stats *peerStats
	trace *atomic.Pointer[tracer]

	mu    sync.Mutex
	lanes map[string]*lane
}

var _ gossip.Network = (*linkNet)(nil)

// lane orders the messages to one peer: a message leaves when its delay
// has passed and every earlier message to that peer has left.
type lane struct {
	mu      sync.Mutex
	turn    *sync.Cond
	next    uint64 // next ticket to hand out
	serving uint64 // ticket allowed to leave
}

func newLinkNet(inner gossip.Network, delay time.Duration, stats *peerStats, trace *atomic.Pointer[tracer]) *linkNet {
	return &linkNet{inner: inner, delay: delay, stats: stats, trace: trace, lanes: make(map[string]*lane)}
}

func (l *linkNet) lane(peer string) *lane {
	l.mu.Lock()
	defer l.mu.Unlock()
	ln := l.lanes[peer]
	if ln == nil {
		ln = &lane{}
		ln.turn = sync.NewCond(&ln.mu)
		l.lanes[peer] = ln
	}
	return ln
}

// transit holds the caller for the one-way delay towards peer and lets
// callers go in the order they arrived.
func (l *linkNet) transit(peer string) {
	if l.delay <= 0 {
		return
	}
	ln := l.lane(peer)
	ln.mu.Lock()
	due := time.Now().Add(l.delay)
	ticket := ln.next
	ln.next++
	ln.mu.Unlock()

	time.Sleep(time.Until(due))

	ln.mu.Lock()
	for ln.serving != ticket {
		ln.turn.Wait()
	}
	ln.serving++
	ln.turn.Broadcast()
	ln.mu.Unlock()
}

func (l *linkNet) Self() string    { return l.inner.Self() }
func (l *linkNet) Peers() []string { return l.inner.Peers() }
func (l *linkNet) Close() error    { return l.inner.Close() }

func (l *linkNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	start := time.Now()
	tr := l.trace.Load()
	isBatch := msg.Type == gossip.MsgTransaction
	var ids []hashutil.Hash
	if tr != nil && isBatch {
		ids = hashAll(msg.TxData)
	}
	l.transit(peer)
	sent := time.Now()
	reply, err := l.inner.Request(ctx, peer, msg)
	back := time.Now()
	if l.delay > 0 {
		time.Sleep(l.delay) // the reply's way back
	}
	end := time.Now()

	s := l.stats
	if isBatch {
		s.mu.Lock()
		s.txMessages++
		s.txSent += int64(len(msg.TxData))
		if tr != nil {
			s.requestDur = append(s.requestDur, end.Sub(start))
			s.sends = append(s.sends, batchSend{peer: peer, at: start, ids: ids})
		}
		s.mu.Unlock()
	}
	if tr != nil {
		var first hashutil.Hash
		if len(ids) > 0 {
			first = ids[0]
		}
		root := tr.add("gossip.request."+msg.Type.String(), start, end, -1, first)
		tr.add("link.delay", start, sent, root, first)
		tr.add("gossip.exchange", sent, back, root, first)
		tr.add("link.delay", back, end, root, first)
	}
	return reply, err
}

func (l *linkNet) Broadcast(ctx context.Context, msg gossip.Message) error {
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
	return l.inner.Broadcast(ctx, msg)
}

// SetHandler installs h behind the inbound half of the seam.
func (l *linkNet) SetHandler(h gossip.Handler) {
	l.inner.SetHandler(&observedHandler{inner: h, stats: l.stats, trace: l.trace})
}

// observedHandler times every inbound message and, after a transaction
// batch has been handled, notes which of its transactions the node now
// holds — the observation the replicate latency is built from.
type observedHandler struct {
	inner gossip.Handler
	stats *peerStats
	trace *atomic.Pointer[tracer]
}

func (o *observedHandler) HandleGossip(from string, msg gossip.Message) (*gossip.Message, error) {
	if msg.Type != gossip.MsgTransaction {
		return o.inner.HandleGossip(from, msg)
	}
	s := o.stats
	// The transport may reuse the batch's buffers once the handler
	// returns, so the IDs are taken first.
	var ids []hashutil.Hash
	if s.observeRecv {
		ids = hashAll(msg.TxData)
	}
	start := time.Now()
	reply, err := o.inner.HandleGossip(from, msg)
	end := time.Now()

	tr := o.trace.Load()
	s.mu.Lock()
	s.txBatches++
	s.txHandled += int64(len(msg.TxData))
	s.handleBusy += end.Sub(start)
	if s.observeRecv && s.contains != nil {
		still := s.unattached[:0]
		for _, id := range s.unattached {
			if s.contains(id) {
				s.arrivals = append(s.arrivals, arrival{id: id, at: end})
				s.hub.arrived(id)
			} else {
				still = append(still, id)
			}
		}
		s.unattached = still
		for _, id := range ids {
			if s.contains(id) {
				s.arrivals = append(s.arrivals, arrival{id: id, at: end})
				s.hub.arrived(id)
			} else {
				s.unattached = append(s.unattached, id)
			}
		}
		if tr != nil {
			s.handles = append(s.handles, batchHandle{start: start, end: end, ids: ids})
		}
	}
	s.mu.Unlock()
	if tr != nil {
		var first hashutil.Hash
		if len(ids) > 0 {
			first = ids[0]
		}
		tr.add("node.relay_handle", start, end, -1, first)
	}
	return reply, err
}
