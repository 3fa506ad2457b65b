package node_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/txn"
)

// stubNet is a controllable gossip.Network for pipeline tests: Request
// can be gated to stall the per-peer senders, and every sent batch is
// recorded.
type stubNet struct {
	peerNames []string
	reqGate   chan struct{} // when non-nil, Request blocks until closed

	mu      sync.Mutex
	batches []int // TxData length of each Request, in arrival order
	total   int
}

func (s *stubNet) Self() string    { return "stub" }
func (s *stubNet) Peers() []string { return s.peerNames }

func (s *stubNet) Broadcast(ctx context.Context, msg gossip.Message) error { return nil }

func (s *stubNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	if s.reqGate != nil {
		<-s.reqGate
	}
	s.mu.Lock()
	s.batches = append(s.batches, len(msg.TxData))
	s.total += len(msg.TxData)
	s.mu.Unlock()
	return gossip.Message{}, nil
}

func (s *stubNet) SetHandler(h gossip.Handler) {}
func (s *stubNet) Close() error                { return nil }

func (s *stubNet) snapshot() (batches []int, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batches...), s.total
}

// newPipelineNode builds a manager full node over a stub network (the
// manager address is always authorized, so tests can submit directly).
func newPipelineNode(t *testing.T, net gossip.Network, peerQueue, batch int) *node.FullNode {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        key,
		Role:       identity.RoleManager,
		ManagerPub: key.Public(),
		Credit:     testParams(),
		Network:    net,
	})
	if err != nil {
		t.Fatal(err)
	}
	full.SetBroadcastBounds(peerQueue, batch)
	t.Cleanup(func() { _ = full.Close() })
	return full
}

// mineOwnTx builds a valid node-signed transaction ready to Submit.
func mineOwnTx(t *testing.T, full *node.FullNode, payload string) *txn.Transaction {
	t.Helper()
	trunk, branch, err := full.TipsForApproval()
	if err != nil {
		t.Fatal(err)
	}
	tr := &txn.Transaction{
		Trunk:     trunk,
		Branch:    branch,
		Timestamp: full.Clock().Now(),
		Kind:      txn.KindData,
		Payload:   []byte(payload),
	}
	tr.Sign(full.Key())
	w := pow.Worker{}
	if _, err := w.Attach(context.Background(), tr, full.DifficultyFor(full.Address())); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBroadcastBatchesCoalesce(t *testing.T) {
	ctx := context.Background()
	const n, maxBatch = 20, 8
	net := &stubNet{peerNames: []string{"peer"}, reqGate: make(chan struct{})}
	full := newPipelineNode(t, net, 64, maxBatch)

	// The sender stalls on its first Request while the rest of the
	// submissions pile up behind it, forcing coalescing.
	for i := 0; i < n; i++ {
		if _, err := full.Submit(ctx, mineOwnTx(t, full, fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(net.reqGate)
	if err := full.FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}

	batches, total := net.snapshot()
	if total != n {
		t.Fatalf("delivered %d transactions, want %d", total, n)
	}
	if len(batches) >= n {
		t.Errorf("no coalescing: %d batches for %d transactions", len(batches), n)
	}
	multi := false
	for _, size := range batches {
		if size > maxBatch {
			t.Errorf("batch of %d exceeds cap %d", size, maxBatch)
		}
		if size > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("expected at least one multi-transaction batch")
	}

	p := full.Pipeline()
	if got := p.TxBroadcast.Value(); got != int64(n) {
		t.Errorf("TxBroadcast = %d, want %d", got, n)
	}
	if got := p.BatchesSent.Value(); got != int64(len(batches)) {
		t.Errorf("BatchesSent = %d, want %d", got, len(batches))
	}
	if p.AdmitLatency.Count() < n || p.AttachLatency.Count() < n {
		t.Error("per-stage latency histograms missing samples")
	}
}

// fillStalledPeer submits to full — whose one peer accepts nothing, and
// whose peer queue holds one transaction without batching — until that
// peer holds all it can: a full window of batches in flight, one more in
// the sender's hands, one in the queue. The sender is asynchronous, so
// each submission is followed until the sender has taken it: unpaced, a
// submission can find the one before still in the queue and drop what the
// window still had room for.
func fillStalledPeer(t *testing.T, full *node.FullNode) {
	t.Helper()
	p := full.Pipeline()
	for i := 0; i < node.SendWindow+2; i++ {
		if _, err := full.Submit(context.Background(), mineOwnTx(t, full, fmt.Sprintf("held-%d", i))); err != nil {
			t.Fatal(err)
		}
		settled := func() bool {
			switch {
			case i < node.SendWindow: // in flight
				return p.InFlight.Value() == int64(i+1)
			case i == node.SendWindow: // in the sender's hands, window full
				return p.WindowStalls.Value() == 1
			default: // queued
				return true
			}
		}
		for deadline := time.Now().Add(5 * time.Second); !settled(); {
			if time.Now().After(deadline) {
				t.Fatalf("submission %d never came to rest in the fan-out", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestSlowPeerDropsNotStalls(t *testing.T) {
	ctx := context.Background()
	const extra = 10
	net := &stubNet{peerNames: []string{"slow"}, reqGate: make(chan struct{})}
	full := newPipelineNode(t, net, 1, 1) // peer queue of one, no batching

	// Every submission past what the stalled peer holds returns promptly
	// even though the peer accepts nothing: overflow drops rather than
	// stalling admission.
	fillStalledPeer(t, full)
	for i := 0; i < extra; i++ {
		if _, err := full.Submit(ctx, mineOwnTx(t, full, fmt.Sprintf("slow-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(net.reqGate)
	if err := full.FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}

	p := full.Pipeline()
	_, total := net.snapshot()
	if got := p.PeerDrops.Value(); got != extra {
		t.Errorf("%d drops for the slow peer, want %d (window, sender and queue hold %d)", got, extra, node.SendWindow+2)
	}
	if got := p.PeerDrops.Value() + int64(total); got != node.SendWindow+2+extra {
		t.Errorf("drops+delivered = %d, want %d", got, node.SendWindow+2+extra)
	}
}

// TestSubmitIsNeverRefusedByTheFanOut: a flush waits for room in a
// stalled peer's full queue; the submissions made meanwhile — more than
// any fan-out buffer holds — are all admitted, each dropped for that peer
// rather than refused.
func TestSubmitIsNeverRefusedByTheFanOut(t *testing.T) {
	ctx := context.Background()
	const more = 1100 // past the 1 024 transactions the fan-out used to buffer
	net := &stubNet{peerNames: []string{"slow"}, reqGate: make(chan struct{})}
	full := newPipelineNode(t, net, 1, 1)
	fillStalledPeer(t, full)

	flushed := make(chan error, 1)
	go func() { flushed <- full.FlushBroadcast(ctx) }()
	for i := 0; i < more; i++ {
		if _, err := full.Submit(ctx, mineOwnTx(t, full, fmt.Sprintf("more-%d", i))); err != nil {
			t.Fatalf("submission %d behind a held flush: %v", i, err)
		}
	}
	select {
	case err := <-flushed:
		t.Fatalf("flush returned (%v) with the peer accepting nothing", err)
	default:
	}
	close(net.reqGate)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}

	p := full.Pipeline()
	_, total := net.snapshot()
	if got := p.PeerDrops.Value(); got != more {
		t.Errorf("%d drops for the stalled peer, want %d", got, more)
	}
	if total != node.SendWindow+2 {
		t.Errorf("delivered %d, want the %d the peer held", total, node.SendWindow+2)
	}
}

func TestConcurrentSubmitPipeline(t *testing.T) {
	ctx := context.Background()
	const workers, perWorker = 8, 5
	net := &stubNet{peerNames: []string{"a", "b"}}
	full := newPipelineNode(t, net, 0, 0)

	// Mine outside the submission window so the race is on Submit.
	txs := make([]*txn.Transaction, workers*perWorker)
	for i := range txs {
		txs[i] = mineOwnTx(t, full, fmt.Sprintf("conc-%d", i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(txs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := full.Submit(ctx, txs[w*perWorker+i]); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent submit: %v", err)
	}
	if err := full.FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tr := range txs {
		if !full.Tangle().Contains(tr.ID()) {
			t.Fatalf("transaction %s missing after concurrent submit", tr.ID().Short())
		}
	}
	if got := full.CountersView().Accepted.Value(); got != int64(len(txs)) {
		t.Errorf("accepted = %d, want %d", got, len(txs))
	}
	// Both peers saw every transaction (queues were unbounded enough).
	_, total := net.snapshot()
	if total != len(txs)*2 {
		t.Errorf("delivered %d, want %d", total, len(txs)*2)
	}
}

// TestCloseRacingSubmitsAndFlushes: submissions and flushes running
// while the node closes neither meet a closed queue nor hang, and no
// transaction reaches a peer twice.
func TestCloseRacingSubmitsAndFlushes(t *testing.T) {
	ctx := context.Background()
	const workers, perWorker = 4, 8
	net := &stubNet{peerNames: []string{"a", "b"}}
	full := newPipelineNode(t, net, 4, 0)
	txs := make([]*txn.Transaction, workers*perWorker)
	for i := range txs {
		txs[i] = mineOwnTx(t, full, fmt.Sprintf("race-%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for _, tr := range txs[w*perWorker : (w+1)*perWorker] {
				if _, err := full.Submit(ctx, tr); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			if err := full.FlushBroadcast(ctx); err != nil {
				t.Errorf("flush: %v", err)
			}
		}()
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_, total := net.snapshot()
	if placed := int64(total) + full.Pipeline().PeerDrops.Value(); placed > 2*int64(len(txs)) {
		t.Errorf("%d deliveries and drops for %d transactions to 2 peers", placed, len(txs))
	}
}

func TestCloseIsIdempotentAndLocalOnly(t *testing.T) {
	ctx := context.Background()
	net := &stubNet{peerNames: []string{"peer"}}
	full := newPipelineNode(t, net, 0, 0)

	if _, err := full.Submit(ctx, mineOwnTx(t, full, "pre-close")); err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	// Admission keeps working after close; only fan-out stops.
	tr := mineOwnTx(t, full, "post-close")
	if _, err := full.Submit(ctx, tr); err != nil {
		t.Fatalf("submit after close: %v", err)
	}
	if !full.Tangle().Contains(tr.ID()) {
		t.Error("post-close submission not attached locally")
	}
	if err := full.FlushBroadcast(ctx); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
}

// windowNet is a scripted gossip.Network for the send-window tests:
// every Request reports in on arrived and then blocks until the test
// releases it through release, so the test decides how many are in
// flight at each instant and which of them fail.
type windowNet struct {
	arrived chan [][]byte // one send per Request, carrying its batch
	release chan error    // one receive per Request: its outcome
	done    chan struct{} // closed when the test ends: everything returns

	mu        sync.Mutex
	inFlight  int
	maxFlight int
}

// newWindowNode builds a node over a windowNet. When the test ends,
// Requests still blocked return before the node is closed.
func newWindowNode(t *testing.T) (*windowNet, *node.FullNode) {
	t.Helper()
	net := &windowNet{arrived: make(chan [][]byte), release: make(chan error), done: make(chan struct{})}
	full := newPipelineNode(t, net, 0, 0)
	t.Cleanup(func() { close(net.done) })
	return net, full
}

func (w *windowNet) Self() string                                          { return "stub" }
func (w *windowNet) Peers() []string                                       { return []string{"peer"} }
func (w *windowNet) Broadcast(ctx context.Context, _ gossip.Message) error { return nil }
func (w *windowNet) SetHandler(h gossip.Handler)                           {}
func (w *windowNet) Close() error                                          { return nil }

func (w *windowNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	w.mu.Lock()
	w.inFlight++
	if w.inFlight > w.maxFlight {
		w.maxFlight = w.inFlight
	}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inFlight--
		w.mu.Unlock()
	}()
	select {
	case w.arrived <- slices.Clone(msg.TxData): // the sender reuses its batch once Request returns
	case <-w.done:
		return gossip.Message{}, gossip.ErrClosed
	}
	select {
	case err := <-w.release:
		return gossip.Message{}, err
	case <-w.done:
		return gossip.Message{}, gossip.ErrClosed
	}
}

// expectArrivals receives n Requests and returns their batches in the
// order the transport saw them.
func (w *windowNet) expectArrivals(t *testing.T, n int) [][][]byte {
	t.Helper()
	out := make([][][]byte, 0, n)
	for i := 0; i < n; i++ {
		select {
		case b := <-w.arrived:
			out = append(out, b)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests reached the transport", i, n)
		}
	}
	return out
}

// expectQuiet asserts that no further Request reaches the transport.
func (w *windowNet) expectQuiet(t *testing.T) {
	t.Helper()
	select {
	case <-w.arrived:
		t.Fatal("a request went out past the full window")
	case <-time.After(50 * time.Millisecond):
	}
}

// acknowledge completes n Requests with the given outcome.
func (w *windowNet) acknowledge(t *testing.T, n int, outcome error) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case w.release <- outcome:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests were waiting for their reply", i, n)
		}
	}
}

// submitQueued admits n fresh transactions — each on the peer's queue by
// the time its Submit returns — and returns their encodings in
// submission order.
func submitQueued(t *testing.T, full *node.FullNode, tag string, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		tr := mineOwnTx(t, full, fmt.Sprintf("%s-%d", tag, i))
		if _, err := full.Submit(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		out[i] = tr.Encode()
	}
	return out
}

// submitInFlight admits n transactions one at a time, each reaching the
// transport before the next is submitted, so that each is a batch of
// its own however the sender is scheduled. It returns the encodings and
// the batches as the transport saw them.
func submitInFlight(t *testing.T, net *windowNet, full *node.FullNode, tag string, n int) (sent [][]byte, seen [][][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		sent = append(sent, submitQueued(t, full, fmt.Sprintf("%s-%d", tag, i), 1)...)
		seen = append(seen, net.expectArrivals(t, 1)...)
	}
	return sent, seen
}

// flatten concatenates batches.
func flatten(batches [][][]byte) [][]byte {
	var out [][]byte
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func sameEncodings(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestSendWindowBoundsInFlight: with nothing acknowledged, a window of
// single-transaction batches goes out and no request past the bound;
// the stall is counted once; what queued up behind the full window
// leaves as ONE batch when a slot frees.
func TestSendWindowBoundsInFlight(t *testing.T) {
	const extra = 5
	net, full := newWindowNode(t)
	sent, seen := submitInFlight(t, net, full, "win", node.SendWindow)
	for i, b := range seen {
		if len(b) != 1 {
			t.Errorf("batch %d carries %d transactions with the window still open, want 1", i, len(b))
		}
	}
	p := full.Pipeline()
	if got := p.WindowStalls.Value(); got != 0 {
		t.Errorf("WindowStalls = %d before the window filled, want 0", got)
	}

	sent = append(sent, submitQueued(t, full, "behind", extra)...)
	net.expectQuiet(t)
	if got := p.InFlight.Value(); got != node.SendWindow {
		t.Errorf("InFlight gauge = %d, want %d", got, node.SendWindow)
	}
	if got := p.WindowStalls.Value(); got != 1 {
		t.Errorf("WindowStalls = %d, want 1", got)
	}

	net.acknowledge(t, 1, nil) // one acknowledgement frees one slot
	behind := net.expectArrivals(t, 1)
	if len(behind[0]) != extra {
		t.Errorf("batch behind the full window carries %d transactions, want %d", len(behind[0]), extra)
	}
	if got := flatten(append(seen, behind...)); !sameEncodings(got, sent) {
		t.Error("transactions reached the transport out of submission order")
	}
	net.acknowledge(t, node.SendWindow, nil)
	if err := full.FlushBroadcast(context.Background()); err != nil {
		t.Fatal(err)
	}
	if net.maxFlight != node.SendWindow {
		t.Errorf("at most %d requests were in flight, want %d", net.maxFlight, node.SendWindow)
	}
	if got := p.InFlight.Value(); got != 0 {
		t.Errorf("InFlight gauge = %d after the flush, want 0", got)
	}
}

// TestFlushWaitsForInFlight: FlushBroadcast returns only once every
// batch in flight has been acknowledged or has failed.
func TestFlushWaitsForInFlight(t *testing.T) {
	net, full := newWindowNode(t)
	outcomes := []error{nil, errors.New("link down"), nil}
	submitInFlight(t, net, full, "flush", len(outcomes))

	flushed := make(chan error, 1)
	go func() { flushed <- full.FlushBroadcast(context.Background()) }()
	for i, outcome := range outcomes {
		select {
		case <-flushed:
			t.Fatalf("flush returned with %d batches still in flight", len(outcomes)-i)
		case <-time.After(20 * time.Millisecond):
		}
		net.acknowledge(t, 1, outcome)
	}
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush did not return after every batch completed")
	}
	p := full.Pipeline()
	if p.BatchesSent.Value() != 2 || p.SendFailures.Value() != 1 {
		t.Errorf("sent %d failed %d, want 2 and 1", p.BatchesSent.Value(), p.SendFailures.Value())
	}
}

// TestCloseDrainsInFlight: Close waits for sends still in flight, and
// what was queued behind them still goes out.
func TestCloseDrainsInFlight(t *testing.T) {
	net, full := newWindowNode(t)
	sent, seen := submitInFlight(t, net, full, "close", node.SendWindow)
	sent = append(sent, submitQueued(t, full, "queued", 2)...)

	closed := make(chan struct{})
	go func() { _ = full.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a full window in flight")
	case <-time.After(20 * time.Millisecond):
	}
	net.acknowledge(t, node.SendWindow, nil)
	seen = append(seen, net.expectArrivals(t, 1)...) // the two behind the window
	net.acknowledge(t, 1, nil)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight sends completed")
	}
	if !sameEncodings(flatten(seen), sent) {
		t.Error("Close lost or reordered queued transactions")
	}
}

// TestSendFailureMidWindow: a batch failing in the middle of the window
// costs that batch only — those behind it are neither lost nor
// reordered.
func TestSendFailureMidWindow(t *testing.T) {
	const n = 6
	net, full := newWindowNode(t)
	sent, seen := submitInFlight(t, net, full, "fail", n)
	if !sameEncodings(flatten(seen), sent) {
		t.Fatal("batches reached the transport out of submission order")
	}
	// Replies come back in any order; the third to return is a failure.
	net.acknowledge(t, 2, nil)
	net.acknowledge(t, 1, errors.New("link down"))
	net.acknowledge(t, n-3, nil)
	if err := full.FlushBroadcast(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := full.Pipeline()
	if p.SendFailures.Value() != 1 || p.BatchesSent.Value() != n-1 || p.TxBroadcast.Value() != n-1 {
		t.Errorf("failures %d, batches %d, transactions %d; want 1, %d, %d",
			p.SendFailures.Value(), p.BatchesSent.Value(), p.TxBroadcast.Value(), n-1, n-1)
	}
	if p.PeerDrops.Value() != 0 {
		t.Errorf("%d peer drops; a send failure is not a drop", p.PeerDrops.Value())
	}
}
