package gossip

import (
	"context"
	"sync"
	"testing"
	"time"
)

// orderHandler records the sequence number each transaction batch
// carries (its first payload byte pair) in the order batches are
// handled, and flags any two handled at once. Sync requests block on
// gate, standing in for a slow page.
type orderHandler struct {
	gate chan struct{}

	mu       sync.Mutex
	seen     []int
	busy     bool
	overlaps int
}

func (h *orderHandler) HandleGossip(from string, msg Message) (*Message, error) {
	if msg.Type != MsgTransaction {
		<-h.gate
		return &Message{Type: MsgSyncResponse}, nil
	}
	h.mu.Lock()
	if h.busy {
		h.overlaps++
	}
	h.busy = true
	h.seen = append(h.seen, int(msg.TxData[0][0])<<8|int(msg.TxData[0][1]))
	h.mu.Unlock()
	time.Sleep(50 * time.Microsecond) // long enough for a neighbour to overlap, if it could
	h.mu.Lock()
	h.busy = false
	h.mu.Unlock()
	return &Message{}, nil
}

func (h *orderHandler) check(t *testing.T, n int) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.seen) != n {
		t.Fatalf("handled %d batches, want %d", len(h.seen), n)
	}
	for i, seq := range h.seen {
		if seq != i {
			t.Fatalf("batch %d handled in position %d: %v", seq, i, h.seen)
		}
	}
	if h.overlaps != 0 {
		t.Errorf("%d batches of one pair were handled concurrently", h.overlaps)
	}
}

func batch(seq int) Message {
	return Message{Type: MsgTransaction, TxData: [][]byte{{byte(seq >> 8), byte(seq)}}}
}

// The order of a pair's transaction batches is fixed the moment each
// exchange takes its place, whatever the scheduler then does with the
// goroutines carrying them: places are taken in sequence here, the
// exchanges then run in the reverse order, all at once, and the handler
// must still see the sequence — one batch at a time — while a sync
// request stuck on the same connection holds nothing up.

func TestTCPPairOrderFollowsRequestStart(t *testing.T) {
	const n = 300
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	h := &orderHandler{gate: make(chan struct{})}
	b.SetHandler(h)
	a.AddPeer(b.Self())
	ctx := context.Background()

	var slow sync.WaitGroup
	slow.Add(1)
	go func() {
		defer slow.Done()
		if _, err := a.Request(ctx, b.Self(), Message{Type: MsgSyncRequest}); err != nil {
			t.Errorf("sync request: %v", err)
		}
	}()
	t.Cleanup(func() { close(h.gate); slow.Wait() }) // before the transports close

	pc := a.conn(b.Self())
	places := make([]ticket, n)
	for i := range places {
		places[i] = pc.order.take()
	}
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := a.nextReq.Add(1)
			if _, err := pc.exchange(ctx, places[i], id, frameMessage(nil, FrameRequest, id, batch(i)), nil); err != nil {
				t.Errorf("batch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	h.check(t, n)
}

func TestBusPairOrderFollowsRequestStart(t *testing.T) {
	const n = 300
	bus := NewBus()
	a, err := bus.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	h := &orderHandler{gate: make(chan struct{})}
	b.SetHandler(h)
	bus.SetLatency(200 * time.Microsecond) // spent side by side, not in turn

	var slow sync.WaitGroup
	slow.Add(1)
	go func() {
		defer slow.Done()
		if _, err := a.Request(context.Background(), "b", Message{Type: MsgSyncRequest}); err != nil {
			t.Errorf("sync request: %v", err)
		}
	}()
	t.Cleanup(func() { close(h.gate); slow.Wait() })

	places := make([]ticket, n)
	for i := range places {
		places[i] = a.lane("b").take()
	}
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer places[i].release()
			if _, err := a.deliverTo("b", batch(i), places[i].wait); err != nil {
				t.Errorf("batch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	h.check(t, n)
}

// TestPairOrderSurvivesFailedRequests: a request that fails before it
// is sent gives its place up, so the ones behind it still go out.
func TestPairOrderSurvivesFailedRequests(t *testing.T) {
	bus := NewBus()
	a, err := bus.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	h := &orderHandler{}
	b.SetHandler(h)

	bus.Partition("a", "b")
	if _, err := a.Request(context.Background(), "b", batch(0)); err == nil {
		t.Fatal("request across a partition succeeded")
	}
	bus.Heal("a", "b")
	for i := 0; i < 3; i++ {
		if _, err := a.Request(context.Background(), "b", batch(i)); err != nil {
			t.Fatalf("batch %d after the failed one: %v", i, err)
		}
	}
	h.check(t, 3)
}
