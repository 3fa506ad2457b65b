package gossip

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// listenPooled starts a pooled endpoint with fast backoff and short
// reply timeouts so failure paths resolve in milliseconds; tunes, in
// order, change its timings further before it accepts.
func listenPooled(t *testing.T, tunes ...func(*TCPNetwork)) (*TCPNetwork, *echoHandler) {
	t.Helper()
	n, err := listenTCP("127.0.0.1:0", func(n *TCPNetwork) {
		n.dialTO, n.ioTO = 2*time.Second, 2*time.Second
		n.backoffMin, n.backoffMax = time.Millisecond, 20*time.Millisecond
		for _, tune := range tunes {
			tune(n)
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	h := &echoHandler{reply: &Message{}}
	n.SetHandler(h)
	return n, h
}

func TestTCPPooledConnectionReuse(t *testing.T) {
	a, _ := listenPooled(t)
	b, hb := listenPooled(t)
	a.AddPeer(b.Self())

	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if hb.count() != rounds {
		t.Errorf("b received %d, want %d", hb.count(), rounds)
	}
	if dials := a.Metrics().Dials.Value(); dials != 1 {
		t.Errorf("dials = %d, want 1 (persistent connection)", dials)
	}
	if reuses := a.Metrics().Reuses.Value(); reuses != rounds-1 {
		t.Errorf("reuses = %d, want %d", reuses, rounds-1)
	}
}

func TestTCPConcurrentRequestsMultiplex(t *testing.T) {
	a, _ := listenPooled(t)
	b, hb := listenPooled(t)
	a.AddPeer(b.Self())

	const inFlight = 16
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent request: %v", err)
		}
	}
	if hb.count() != inFlight {
		t.Errorf("b received %d, want %d", hb.count(), inFlight)
	}
	// All exchanges multiplexed over the single pooled connection.
	if dials := a.Metrics().Dials.Value(); dials != 1 {
		t.Errorf("dials = %d, want 1", dials)
	}
}

func TestTCPBackoffFailsFast(t *testing.T) {
	a, _ := listenPooled(t, func(n *TCPNetwork) { n.backoffMin, n.backoffMax = time.Hour, time.Hour })
	dead, _ := listenPooled(t)
	addr := dead.Self()
	_ = dead.Close()
	a.AddPeer(addr)

	if _, err := a.Request(context.Background(), addr, Message{}); err == nil {
		t.Fatal("request to dead peer succeeded")
	}
	// The second attempt lands inside the (huge) backoff window and must
	// fail fast with ErrBackoff instead of re-dialing.
	start := time.Now()
	_, err := a.Request(context.Background(), addr, Message{})
	if !errors.Is(err, ErrBackoff) {
		t.Fatalf("err = %v, want ErrBackoff", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("backoff gate took %v, want fast failure", elapsed)
	}
	if fails := a.Metrics().DialFailures.Value(); fails != 1 {
		t.Errorf("dial failures = %d, want 1 (backoff suppressed the redial)", fails)
	}
}

func TestTCPPeerRestartReconnect(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	addr := b.Self()
	a.AddPeer(addr)

	if _, err := a.Request(context.Background(), addr, Message{}); err != nil {
		t.Fatalf("initial request: %v", err)
	}
	_ = b.Close()

	// The peer is down: requests fail (write error, reply timeout or
	// fast-failing backoff) until it returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := a.Request(context.Background(), addr, Message{}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests kept succeeding against a closed peer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart on the same address: the pool must redial through its
	// backoff schedule without any explicit reset.
	b2, err := listenTCP(addr, func(n *TCPNetwork) { n.ioTO = 2 * time.Second })
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	b2.SetHandler(&echoHandler{reply: &Message{}})

	for {
		if _, err := a.Request(context.Background(), addr, Message{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never reconnected to the restarted peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if recon := a.Metrics().Reconnects.Value(); recon < 1 {
		t.Errorf("reconnects = %d, want >= 1", recon)
	}
	if dials := a.Metrics().Dials.Value(); dials < 2 {
		t.Errorf("dials = %d, want >= 2 (before and after restart)", dials)
	}
}

func TestTCPRemovePeerDuringBroadcast(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	c, hc := listenPooled(t)
	a.AddPeer(b.Self())
	a.AddPeer(c.Self())

	// Churn b's membership while a broadcast storm runs: every broadcast
	// must still reach the stable peer, and removing a peer mid-flight
	// must never panic or wedge the fan-out.
	const rounds = 100
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.RemovePeer(b.Self())
			a.AddPeer(b.Self())
		}
	}()
	for i := 0; i < rounds; i++ {
		if err := a.Broadcast(context.Background(), Message{Type: MsgTransaction, TxData: [][]byte{{byte(i)}}}); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	close(stop)
	churn.Wait()
	if hc.count() != rounds {
		t.Errorf("stable peer received %d, want %d", hc.count(), rounds)
	}
}

func TestTCPConcurrentBroadcastRequestClose(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	c, _ := listenPooled(t)
	a.AddPeer(b.Self())
	a.AddPeer(c.Self())

	// Broadcasts and requests race a concurrent Close: every call must
	// return (success before the close, an error after), nothing may
	// panic, and Close must still drain all transport goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = a.Broadcast(context.Background(), Message{Type: MsgTransaction})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest})
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()
	if _, err := a.Request(context.Background(), b.Self(), Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("request after close: err = %v, want ErrClosed", err)
	}
}

func TestTCPKeepalivePings(t *testing.T) {
	a, _ := listenPooled(t, func(n *TCPNetwork) { n.keepalive = 20 * time.Millisecond })
	b, _ := listenPooled(t)
	a.AddPeer(b.Self())

	if _, err := a.Request(context.Background(), b.Self(), Message{}); err != nil {
		t.Fatalf("request: %v", err)
	}
	// Idle past several keepalive intervals: pings must flow and the
	// connection must stay warm (no redial afterwards).
	deadline := time.Now().Add(2 * time.Second)
	for a.Metrics().Pings.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no keepalive ping on an idle pooled connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := a.Request(context.Background(), b.Self(), Message{}); err != nil {
		t.Fatalf("request after idle: %v", err)
	}
	if dials := a.Metrics().Dials.Value(); dials != 1 {
		t.Errorf("dials = %d, want 1 (keepalive kept the connection)", dials)
	}
}

// TestTCPPooledFramesCarryTheirOwnBytes: request frames are read into, and
// frames are written out of, buffers the transport recycles the moment it
// is done with them. Many exchanges of different sizes at once — sync
// requests answered on goroutines of their own beside transaction batches
// answered in frame order — must each show the handler its own payload
// for as long as the handler runs, and bring back its own reply.
func TestTCPPooledFramesCarryTheirOwnBytes(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	a.AddPeer(b.Self())
	payload := func(i, n int) []byte { return bytes.Repeat([]byte{byte(i)}, n) }
	b.SetHandler(HandlerFunc(func(_ string, msg Message) (*Message, error) {
		want := payload(int(msg.Offset), len(msg.TxData[0]))
		runtime.Gosched() // let other frames come and go meanwhile
		if !bytes.Equal(msg.TxData[0], want) {
			t.Errorf("exchange %d: the handler saw another frame's bytes", msg.Offset)
		}
		if msg.Type == MsgTransaction {
			return &Message{}, nil
		}
		return &Message{Type: MsgSyncResponse, Offset: msg.Offset, TxData: [][]byte{want}}, nil
	}))

	const exchanges = 200
	var wg sync.WaitGroup
	for i := 0; i < exchanges; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			typ, size := MsgSyncRequest, 1+(i*37)%3000
			if i%3 == 0 {
				typ = MsgTransaction
			}
			reply, err := a.Request(context.Background(), b.Self(),
				Message{Type: typ, Offset: uint64(i), TxData: [][]byte{payload(i, size)}})
			switch {
			case err != nil:
				t.Errorf("exchange %d: %v", i, err)
			case typ == MsgSyncRequest && (reply.Offset != uint64(i) || len(reply.TxData) != 1 || !bytes.Equal(reply.TxData[0], payload(i, size))):
				t.Errorf("exchange %d: the reply carries another exchange's bytes", i)
			}
		}()
	}
	wg.Wait()
}
