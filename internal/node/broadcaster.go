package node

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/metrics"
)

// Fan-out bounds. broadcastPeerQueue bounds each peer's queue (a slow
// peer overflows by dropping; sync repairs it); broadcastBatch caps how
// many transactions one datagram coalesces.
const (
	broadcastPeerQueue = 256
	broadcastBatch     = 32
)

// sendWindow bounds the batches one peer's sender keeps in flight. A
// stop-and-wait sender pays a whole link round trip between batches, so
// on any real link a transaction's fan-out latency is the wait for the
// previous batch's acknowledgement, not its own trip; with a window the
// sender only waits — and batches only grow — once this many
// acknowledgements are outstanding, which is genuine back-pressure. It
// is a constant, not a knob: large enough to cover a link whose round
// trip is eight times the gap between submissions, small enough that a
// dead peer pins eight batches of memory, not a queue's worth.
const sendWindow = 8

// PipelineMetrics exposes the submission pipeline's observability
// surface: per-stage latency histograms and queue instrumentation, so a
// speedup (or a regression) is measurable rather than asserted.
type PipelineMetrics struct {
	// AdmitLatency covers the lock-free admission stage: structural,
	// signature, authorization, rate-limit and PoW checks.
	AdmitLatency *metrics.Histogram
	// AttachLatency covers the short critical section: tangle attach +
	// credit update. Its clock stops before the journal.
	AttachLatency *metrics.Histogram
	// JournalLatency covers one journal record from enqueue to its
	// verdict — queueing behind earlier records plus the flush — on both
	// edges: a submission waits it out (beside its fan-out), a relayed
	// batch usually does not.
	JournalLatency *metrics.Histogram
	// BroadcastLatency covers one batched peer send in the async stage.
	BroadcastLatency *metrics.Histogram
	// InFlight is the number of batches handed to the transport and not
	// yet acknowledged or failed, over all peers (each peer's share is
	// bounded by the send window). WindowStalls counts the times a
	// peer's sender had a batch ready and had to wait for a slot in a
	// full window — the signal that the link, not the node, sets the
	// fan-out pace.
	InFlight     *metrics.Gauge
	WindowStalls *metrics.Counter
	// BatchesSent counts peer datagrams; TxBroadcast counts the
	// transactions they carried (TxBroadcast/BatchesSent = mean batch).
	BatchesSent *metrics.Counter
	TxBroadcast *metrics.Counter
	// PeerDrops counts transactions dropped for one slow peer (its
	// bounded queue was full); gossip sync repairs the gap later.
	PeerDrops *metrics.Counter
	// SendFailures counts failed peer sends (partition, dead peer).
	SendFailures *metrics.Counter
	// VerifyLatency samples one inbound verification (structure +
	// signature + authorization + credit-difficulty PoW check).
	VerifyLatency *metrics.Histogram
	// VerifyBusy / VerifyPeak are the inbound verification pool's
	// current and peak occupancy (bounded by GOMAXPROCS).
	VerifyBusy *metrics.Gauge
	VerifyPeak *metrics.Gauge
	// VerifyCacheHits counts relayed transactions (gossip echoes, sync
	// page overlap) dropped at tangle.Contains because they are attached
	// already: the verify work the ledger itself spared. The name is the
	// verified-ID set's, which this replaced; bench reads it.
	VerifyCacheHits *metrics.Counter
	// BatchVerifies counts identity.VerifyBatch calls on the inbound
	// path; BatchVerified counts the signatures they settled (ratio =
	// mean batch size). BatchFallbacks counts batches whose combined
	// equation failed and fell back to per-signature attribution.
	BatchVerifies  *metrics.Counter
	BatchVerified  *metrics.Counter
	BatchFallbacks *metrics.Counter
	// OrphanSyncs counts background pulls for relayed transactions whose
	// parent never arrived (see repairOrphans).
	OrphanSyncs *metrics.Counter
	// SyncPages counts sync pages this node pulled as a requester.
	SyncPages *metrics.Counter
}

func newPipelineMetrics() PipelineMetrics {
	return PipelineMetrics{
		AdmitLatency:     &metrics.Histogram{},
		AttachLatency:    &metrics.Histogram{},
		JournalLatency:   &metrics.Histogram{},
		BroadcastLatency: &metrics.Histogram{},
		InFlight:         &metrics.Gauge{},
		WindowStalls:     &metrics.Counter{},
		BatchesSent:      &metrics.Counter{},
		TxBroadcast:      &metrics.Counter{},
		PeerDrops:        &metrics.Counter{},
		SendFailures:     &metrics.Counter{},
		VerifyLatency:    &metrics.Histogram{},
		VerifyBusy:       &metrics.Gauge{},
		VerifyPeak:       &metrics.Gauge{},
		VerifyCacheHits:  &metrics.Counter{},
		BatchVerifies:    &metrics.Counter{},
		BatchVerified:    &metrics.Counter{},
		BatchFallbacks:   &metrics.Counter{},
		OrphanSyncs:      &metrics.Counter{},
		SyncPages:        &metrics.Counter{},
	}
}

// broadcastItem is one entry of a peer's queue: an encoded transaction,
// or a flush marker (tx nil) used as an ordering barrier.
type broadcastItem struct {
	tx    []byte
	flush *sync.WaitGroup
}

// broadcaster is the asynchronous fan-out stage of the submission
// pipeline, in two steps: enqueue puts a transaction's bytes on every
// peer's bounded queue from the submitter's own goroutine, and one sender
// per peer drains its queue, coalescing consecutive transactions into
// batched MsgTransaction datagrams and keeping up to sendWindow of them in
// flight.
//
// Nothing here pushes back on admission: a peer whose queue is full drops
// the transaction (counted) and the tangle sync protocol repairs the gap,
// so a slow peer costs itself and no one else.
type broadcaster struct {
	node      *FullNode // its regional network, its shard stamped on every batch
	pipeline  PipelineMetrics
	maxBatch  int
	peerQueue int

	// mu serializes the producers against close: enqueue and flush send
	// holding the read side, close takes the write side before it closes
	// the queues, so a send can never meet a closed queue. closed is set
	// under it and read without it.
	mu     sync.RWMutex
	closed atomic.Bool

	// sendersMu guards senders and orders enqueues: every peer's queue
	// holds the transactions in one order.
	sendersMu sync.Mutex
	senders   map[string]*peerSender

	wg sync.WaitGroup // sender goroutines
}

type peerSender struct {
	name  string
	queue chan broadcastItem
}

// newBroadcaster returns n's fan-out; a peer's sender starts with the
// first transaction or flush addressed to it.
func newBroadcaster(n *FullNode) *broadcaster {
	return &broadcaster{
		node:      n,
		pipeline:  n.pipeline,
		maxBatch:  broadcastBatch,
		peerQueue: broadcastPeerQueue,
		senders:   make(map[string]*peerSender),
	}
}

// enqueue puts an encoded transaction on every current peer's queue
// without waiting: a peer whose queue is full misses it (PeerDrops).
// encoded must not change afterwards; the senders hold it until it is
// sent.
func (b *broadcaster) enqueue(encoded []byte) {
	peers := b.node.cfg.Network.Peers()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed.Load() {
		return
	}
	b.sendersMu.Lock()
	defer b.sendersMu.Unlock()
	for _, name := range peers {
		select {
		case b.sender(name).queue <- broadcastItem{tx: encoded}:
		default:
			b.pipeline.PeerDrops.Inc() // slow peer: sync repairs it
		}
	}
}

// flush blocks until every transaction enqueued before the call has
// been attempted against every current peer (acknowledged, failed or
// dropped) — the barrier tests and graceful shutdown use. A marker must
// not be dropped, so it waits for room in a full queue; that holds off
// close, not enqueue.
func (b *broadcaster) flush(ctx context.Context) error {
	peers := b.node.cfg.Network.Peers()
	b.mu.RLock()
	if b.closed.Load() {
		b.mu.RUnlock()
		return nil
	}
	b.sendersMu.Lock()
	senders := make([]*peerSender, len(peers))
	for i, name := range peers {
		senders[i] = b.sender(name)
	}
	b.sendersMu.Unlock()
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1) // matched by the sender once the batches ahead complete
		select {
		case s.queue <- broadcastItem{flush: &wg}:
		case <-ctx.Done():
			b.mu.RUnlock()
			return ctx.Err()
		}
	}
	b.mu.RUnlock()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sender returns the queue worker of peer name, starting it on first
// use. The caller holds sendersMu and the read side of mu.
func (b *broadcaster) sender(name string) *peerSender {
	s, ok := b.senders[name]
	if !ok {
		s = &peerSender{name: name, queue: make(chan broadcastItem, b.peerQueue)}
		b.senders[name] = s
		b.wg.Add(1)
		go b.sendLoop(s)
	}
	return s
}

// close stops the pipeline: sender queues are closed and drained, and
// the senders join.
func (b *broadcaster) close() {
	b.mu.Lock()
	if b.closed.Swap(true) {
		b.mu.Unlock()
		return
	}
	for _, s := range b.senders {
		close(s.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// sendLoop drains one peer's queue, coalescing consecutive transactions
// into batched datagrams of up to maxBatch entries and keeping up to
// sendWindow batches in flight. It takes a window slot before it
// coalesces, so a batch holds more than the one transaction that
// started it only when the window was full and others queued up behind
// the wait.
//
// Batches are handed to the transport in queue order. Each goes to one
// of up to sendWindow worker goroutines, started as the window fills and
// kept for the sender's lifetime, and the next batch is handed out only
// once the previous one's worker has reported that it is running; both
// transports deliver one pair's batches in the order their Requests
// began. Strictly, a worker can still be descheduled between reporting
// and entering Request; the receiver parks the overtaking batch's
// orphans until the overtaken one lands (admitGossipBatch). (Workers
// rather than a goroutine a batch because a new goroutine grows its
// stack on the way into the transport, which is long enough for the
// next one to get there first a few times in a thousand.)
//
// A window slot is a batch slice: the sender takes a free one to fill and
// the worker gives it back, emptied, once its Request has returned. A
// transport keeps nothing of the message it was handed, so sendWindow
// slices, grown once to the largest batch, carry every batch to this peer.
func (b *broadcaster) sendLoop(s *peerSender) {
	defer b.wg.Done()
	var inflight sync.WaitGroup
	defer inflight.Wait() // close: sends still in flight finish first
	// The free window slots.
	window := make(chan [][]byte, sendWindow)
	for range sendWindow {
		window <- nil
	}
	jobs := make(chan [][]byte)
	defer close(jobs)
	// Buffered, so that reporting never parks the reporting worker:
	// parked, it would be merely runnable again when this loop hands out
	// the next batch, and that batch's worker could run first.
	running := make(chan struct{}, 1)
	worker := func() {
		for batch := range jobs {
			running <- struct{}{}
			b.send(s.name, batch)
			b.pipeline.InFlight.Dec()
			clear(batch)
			window <- batch[:0]
			inflight.Done()
		}
	}
	workers := 0
	for it := range s.queue {
		if it.flush != nil {
			// The barrier completes after every batch launched before it.
			inflight.Wait()
			it.flush.Done()
			continue
		}
		var batch [][]byte
		select {
		case batch = <-window:
		default:
			b.pipeline.WindowStalls.Inc()
			batch = <-window
		}
		batch = append(batch, it.tx)
		var barrier *sync.WaitGroup
	coalesce:
		for len(batch) < b.maxBatch {
			select {
			case next, ok := <-s.queue:
				if !ok {
					break coalesce
				}
				if next.flush != nil {
					barrier = next.flush
					break coalesce
				}
				batch = append(batch, next.tx)
			default:
				break coalesce
			}
		}
		inflight.Add(1)
		b.pipeline.InFlight.Inc()
		select {
		case jobs <- batch: // an idle worker took it
		default:
			// Every worker is busy or on its way back; the window slot
			// says there is room for one more.
			if workers < sendWindow {
				workers++
				go worker()
			}
			jobs <- batch
		}
		<-running
		if barrier != nil {
			inflight.Wait()
			barrier.Done()
		}
	}
}

func (b *broadcaster) send(peer string, batch [][]byte) {
	start := time.Now()
	_, err := b.node.cfg.Network.Request(context.Background(), peer, gossip.Message{
		Type:   gossip.MsgTransaction,
		TxData: batch,
		Shard:  uint64(b.node.cfg.ShardID),
		Scoped: true,
	})
	b.pipeline.BroadcastLatency.Observe(time.Since(start))
	if err != nil {
		b.pipeline.SendFailures.Inc()
		return
	}
	b.pipeline.BatchesSent.Inc()
	b.pipeline.TxBroadcast.Add(int64(len(batch)))
	b.node.counters.GossipOut.Inc()
}
