package node

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/metrics"
)

// Broadcast pipeline bounds. broadcastQueue bounds admissions awaiting
// fan-out — when full, Submit rejects with ErrBroadcastBacklog before
// admitting; broadcastPeerQueue bounds each peer's private queue (a slow
// peer overflows by dropping; sync repairs it); broadcastBatch caps how
// many transactions one datagram coalesces.
const (
	broadcastQueue     = 1024
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

// ErrBroadcastBacklog reports that the node's asynchronous broadcast
// queue is full. The submission was NOT admitted — the caller (a light
// node) should back off and resubmit; this is the pipeline's
// backpressure signal, distinct from rate limiting which is per-device.
var ErrBroadcastBacklog = errors.New("gossip broadcast queue is full")

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
	// QueueDepth is the intake queue's current occupancy (reserved
	// slots included).
	QueueDepth *metrics.Gauge
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
		QueueDepth:       &metrics.Gauge{},
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

// broadcastItem is one unit flowing through the pipeline: an encoded
// transaction, or a flush marker (tx nil) used as an ordering barrier.
type broadcastItem struct {
	tx    []byte
	flush *sync.WaitGroup
}

// broadcaster is the asynchronous fan-out stage of the submission
// pipeline: a bounded intake queue feeding one dispatcher goroutine,
// which distributes work to per-peer bounded queues each drained by one
// sender goroutine that coalesces consecutive transactions into batched
// MsgTransaction datagrams and keeps up to sendWindow of them in flight.
//
// Backpressure: intake capacity is reserved before admission and
// surfaces as ErrBroadcastBacklog when exhausted. A slow peer never
// stalls the pipeline — its queue overflows by dropping (counted), and
// the tangle sync protocol repairs the gap.
type broadcaster struct {
	node      *FullNode // its regional network, its shard stamped on every batch
	pipeline  PipelineMetrics
	maxBatch  int
	peerQueue int

	intake   chan broadcastItem
	reserved atomic.Int64 // slots promised to in-flight admissions

	// sendMu serializes producers against close: sends hold the read
	// side, close takes the write side before closing the intake, so a
	// send can never hit a closed channel.
	sendMu sync.RWMutex
	closed bool

	mu      sync.Mutex
	senders map[string]*peerSender

	wg sync.WaitGroup // dispatcher + sender goroutines
}

type peerSender struct {
	name  string
	queue chan broadcastItem
}

// newBroadcaster starts n's fan-out.
func newBroadcaster(n *FullNode) *broadcaster {
	b := &broadcaster{
		node:      n,
		pipeline:  n.pipeline,
		maxBatch:  broadcastBatch,
		peerQueue: broadcastPeerQueue,
		intake:    make(chan broadcastItem, broadcastQueue),
		senders:   make(map[string]*peerSender),
	}
	b.wg.Add(1)
	go b.dispatch()
	return b
}

// reserve claims one intake slot ahead of admission, so a successful
// admit can always enqueue without blocking; unreserve frees the slot if
// admission fails.
func (b *broadcaster) reserve() error {
	for {
		cur := b.reserved.Load()
		if cur >= int64(cap(b.intake)) {
			return ErrBroadcastBacklog
		}
		if b.reserved.CompareAndSwap(cur, cur+1) {
			b.pipeline.QueueDepth.Inc()
			return nil
		}
	}
}

// unreserve gives one intake slot back: the admission failed, or the
// dispatcher has taken the transaction out of the intake.
func (b *broadcaster) unreserve() {
	b.reserved.Add(-1)
	b.pipeline.QueueDepth.Dec()
}

// enqueue hands an encoded transaction to the async stage. The caller
// must hold a reservation; the send therefore never blocks.
func (b *broadcaster) enqueue(encoded []byte) {
	b.sendMu.RLock()
	defer b.sendMu.RUnlock()
	if b.closed {
		b.unreserve()
		return
	}
	b.intake <- broadcastItem{tx: encoded}
}

// flush blocks until every transaction enqueued before the call has
// been attempted against every current peer (acknowledged, failed or
// dropped) — the barrier tests and graceful shutdown use.
func (b *broadcaster) flush(ctx context.Context) error {
	var wg sync.WaitGroup
	wg.Add(1) // matched by the dispatcher after fan-out

	b.sendMu.RLock()
	if b.closed {
		b.sendMu.RUnlock()
		return nil
	}
	// Markers carry no reservation, so this send can briefly block on a
	// full intake; the dispatcher is always draining, so it progresses.
	b.intake <- broadcastItem{flush: &wg}
	b.sendMu.RUnlock()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isClosed reports whether close has run — the transport-health probe.
func (b *broadcaster) isClosed() bool {
	b.sendMu.RLock()
	defer b.sendMu.RUnlock()
	return b.closed
}

// saturated reports a full intake queue: admissions are about to hit
// ErrBroadcastBacklog. A readiness probe that sheds load here lets the
// queue drain instead of bouncing submissions off the hard limit.
func (b *broadcaster) saturated() bool {
	return b.reserved.Load() >= int64(cap(b.intake))
}

// close stops the pipeline: the dispatcher drains the intake, sender
// queues are closed and drained, and all goroutines join.
func (b *broadcaster) close() {
	b.sendMu.Lock()
	if b.closed {
		b.sendMu.Unlock()
		return
	}
	b.closed = true
	close(b.intake)
	b.sendMu.Unlock()
	b.wg.Wait()
}

func (b *broadcaster) dispatch() {
	defer b.wg.Done()
	for it := range b.intake {
		// The peer list and the senders are resolved once per burst:
		// everything already waiting in the intake fans out to the same
		// set.
		senders := b.sendersFor(b.node.cfg.Network.Peers())
		b.fanOut(it, senders)
	burst:
		for {
			select {
			case next, ok := <-b.intake:
				if !ok {
					break burst
				}
				b.fanOut(next, senders)
			default:
				break burst
			}
		}
	}
	// Shutdown: close sender queues and let them drain.
	b.mu.Lock()
	senders := make([]*peerSender, 0, len(b.senders))
	for _, s := range b.senders {
		senders = append(senders, s)
	}
	b.mu.Unlock()
	for _, s := range senders {
		close(s.queue)
	}
}

// fanOut hands one intake item to every sender's queue.
func (b *broadcaster) fanOut(it broadcastItem, senders []*peerSender) {
	if it.flush != nil {
		// Barrier: propagate to every current peer queue with a blocking
		// send (a flush must not be dropped), then release the
		// dispatcher's own count.
		for _, s := range senders {
			it.flush.Add(1)
			s.queue <- it
		}
		it.flush.Done()
		return
	}
	b.unreserve()
	for _, s := range senders {
		select {
		case s.queue <- it:
		default:
			b.pipeline.PeerDrops.Inc() // slow peer: sync repairs it
		}
	}
}

// sendersFor returns (starting where needed) the queue workers of peers.
func (b *broadcaster) sendersFor(peers []string) []*peerSender {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*peerSender, len(peers))
	for i, name := range peers {
		s, ok := b.senders[name]
		if !ok {
			s = &peerSender{name: name, queue: make(chan broadcastItem, b.peerQueue)}
			b.senders[name] = s
			b.wg.Add(1)
			go b.sendLoop(s)
		}
		out[i] = s
	}
	return out
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
func (b *broadcaster) sendLoop(s *peerSender) {
	defer b.wg.Done()
	var inflight sync.WaitGroup
	defer inflight.Wait() // close: sends still in flight finish first
	window := make(chan struct{}, sendWindow)
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
			<-window
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
		select {
		case window <- struct{}{}:
		default:
			b.pipeline.WindowStalls.Inc()
			window <- struct{}{}
		}
		batch := [][]byte{it.tx}
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
