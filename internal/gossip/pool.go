package gossip

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// peerConn is one peer's slot in the connection pool: at most one live
// dialed TCP connection, multiplexing any number of concurrent
// exchanges over it by request ID. The connection is established
// lazily on first use and re-established lazily after failure, with
// exponential backoff + jitter gating consecutive failed dials so a
// dead peer costs one fast error instead of a dial timeout per
// exchange.
type peerConn struct {
	net  *TCPNetwork
	addr string

	// mu guards connection lifecycle. Dialing happens under it: every
	// exchange racing for a down connection waits for the one dial
	// instead of stampeding the peer.
	mu       sync.Mutex
	conn     net.Conn
	gen      int           // increments per established connection
	backoff  time.Duration // current consecutive-failure delay
	nextDial time.Time     // earliest next dial attempt
	stop     chan struct{} // closed to end the current keepalive loop
	closed   bool

	// order fixes the sequence of request frames at the moment each
	// exchange begins, so concurrent exchanges reach the peer in the
	// order their callers started them. writeMu keeps a keepalive ping
	// from interleaving with a request frame; lastSend feeds the
	// keepalive.
	order    *fifo
	writeMu  sync.Mutex
	lastSend time.Time

	pendingMu sync.Mutex
	pending   map[uint64]*call
}

// call is one exchange's record in its peer's pending table: the
// connection generation the request went out on, the channel its one
// result arrives on, and the timer its wait for that result runs
// against. Records are pooled. Whoever takes a record out of the table —
// complete with the reply, or failPending with the connection's error —
// sends its one result into ch, which has room for it, so the send never
// waits. The exchange puts the record back in the pool only after it has
// received that result and stopped and drained the timer. An exchange
// that stops waiting first (reply timeout, context cancelled, failed
// write) abandons its record instead: a result may already be on its way
// into ch, and in a record no one reuses a late reply lands in garbage,
// never in a later exchange.
type call struct {
	gen   int
	ch    chan exchangeResult
	timer *time.Timer
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop() // before it could fire: its channel is empty
	return &call{ch: make(chan exchangeResult, 1), timer: t}
}}

type exchangeResult struct {
	msg Message
	err error
}

func newPeerConn(n *TCPNetwork, addr string) *peerConn {
	return &peerConn{net: n, addr: addr, order: newFifo(), pending: make(map[uint64]*call)}
}

// ensure returns the live connection, dialing if necessary. A dial
// inside the backoff window fails fast with ErrBackoff.
func (p *peerConn) ensure(ctx context.Context) (net.Conn, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, 0, ErrClosed
	}
	if p.conn != nil {
		p.net.metrics.Reuses.Inc()
		return p.conn, p.gen, nil
	}
	if wait := time.Until(p.nextDial); wait > 0 {
		return nil, 0, fmt.Errorf("%w: %s retries in %v", ErrBackoff, p.addr, wait.Round(time.Millisecond))
	}
	dialer := net.Dialer{Timeout: p.net.dialTO}
	conn, err := dialer.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		p.net.metrics.DialFailures.Inc()
		p.scheduleBackoffLocked()
		return nil, 0, fmt.Errorf("dial %s: %w", p.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
	}
	p.backoff = 0
	p.nextDial = time.Time{}
	p.conn = conn
	p.gen++
	p.stop = make(chan struct{})
	p.net.metrics.Dials.Inc()
	p.net.wg.Add(2)
	go p.readLoop(conn, p.gen)
	go p.keepaliveLoop(conn, p.gen, p.stop)
	return p.conn, p.gen, nil
}

// scheduleBackoffLocked doubles the consecutive-failure delay (capped)
// and jitters the next attempt into [backoff/2, backoff] so restarting
// peers are not hit by synchronized redial waves.
func (p *peerConn) scheduleBackoffLocked() {
	if p.backoff <= 0 {
		p.backoff = p.net.backoffMin
	} else if p.backoff < p.net.backoffMax {
		p.backoff *= 2
		if p.backoff > p.net.backoffMax {
			p.backoff = p.net.backoffMax
		}
	}
	delay := p.backoff/2 + time.Duration(rand.Int63n(int64(p.backoff/2)+1))
	p.nextDial = time.Now().Add(delay)
}

// exchange runs one request→response round trip over the pooled
// connection: frame is a complete request frame carrying request id,
// and place is the caller's ticket from p.order, which exchange
// releases. Multiple exchanges are safely in flight at once, and their
// frames go out in ticket order. An exchange that gets its reply
// allocates nothing: its record comes from callPool and goes back to it.
func (p *peerConn) exchange(ctx context.Context, place ticket, id uint64, frame []byte) (Message, error) {
	conn, gen, err := p.ensure(ctx)
	if err != nil {
		place.release()
		return Message{}, err
	}
	c := callPool.Get().(*call)
	c.gen = gen
	p.pendingMu.Lock()
	p.pending[id] = c
	p.pendingMu.Unlock()
	p.net.metrics.InFlight.Inc()
	defer p.net.metrics.InFlight.Dec()

	start := time.Now()
	place.wait()
	p.writeMu.Lock()
	_ = conn.SetWriteDeadline(time.Now().Add(p.net.ioTO))
	nw, werr := conn.Write(frame)
	p.lastSend = time.Now()
	p.writeMu.Unlock()
	place.release()
	p.net.metrics.BytesOut.Add(int64(nw))
	if werr != nil {
		p.drop(id)
		p.teardown(gen, werr)
		return Message{}, fmt.Errorf("write to %s: %w", p.addr, werr)
	}

	c.timer.Reset(p.net.ioTO)
	select {
	case res := <-c.ch:
		// Under the module's go 1.22 timer semantics a timer that fired
		// as it was stopped may deliver its tick after Stop returns false,
		// so the drain waits for it; under the later ones Stop empties the
		// channel itself and reports true.
		if !c.timer.Stop() {
			<-c.timer.C
		}
		callPool.Put(c)
		if res.err != nil {
			return Message{}, fmt.Errorf("exchange with %s: %w", p.addr, res.err)
		}
		p.net.metrics.ExchangeRTT.Observe(time.Since(start))
		return res.msg, nil
	case <-ctx.Done():
		p.drop(id)
		return Message{}, ctx.Err()
	case <-c.timer.C:
		p.drop(id)
		return Message{}, fmt.Errorf("exchange with %s: reply timeout", p.addr)
	}
}

// readLoop routes inbound frames on one dialed connection: responses
// complete their pending exchange; anything else is a keepalive echo or
// protocol noise and is dropped. A read error tears the connection down
// and fails every exchange still pending on it. A reply that carries
// something keeps its frame, which the Message handed to Request's caller
// aliases; a frame nothing keeps — the empty ack that answers every
// transaction batch among them — is read over by the next one.
func (p *peerConn) readLoop(conn net.Conn, gen int) {
	defer p.net.wg.Done()
	reader := bufio.NewReader(conn)
	var frame []byte // the last frame read, while nothing keeps it
	for {
		kind, id, payload, wire, err := readFrame(reader, frame)
		if err != nil {
			p.teardown(gen, err)
			return
		}
		p.net.metrics.BytesIn.Add(int64(wire))
		frame = payload
		if kind == FrameResponse {
			msg, derr := DecodeMessage(payload)
			if derr == nil && !msg.isZero() {
				frame = nil // the reply aliases it: its caller's now
			}
			p.complete(id, exchangeResult{msg: msg, err: derr})
		}
	}
}

// keepaliveLoop pings an idle connection so the peer's idle deadline
// stays fresh and silent peer death is detected by a failed write.
func (p *peerConn) keepaliveLoop(conn net.Conn, gen int, stop chan struct{}) {
	defer p.net.wg.Done()
	ticker := time.NewTicker(p.net.keepalive)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			p.writeMu.Lock()
			var err error
			if time.Since(p.lastSend) >= p.net.keepalive {
				_ = conn.SetWriteDeadline(time.Now().Add(p.net.ioTO))
				var nw int
				nw, err = conn.Write(EncodeFrame(FramePing, 0, nil))
				p.net.metrics.BytesOut.Add(int64(nw))
				if err == nil {
					p.net.metrics.Pings.Inc()
					p.lastSend = time.Now()
				}
			}
			p.writeMu.Unlock()
			if err != nil {
				p.teardown(gen, err)
				return
			}
		}
	}
}

// teardown retires one connection generation: later exchanges redial
// lazily. Pending calls on newer generations are untouched.
func (p *peerConn) teardown(gen int, cause error) {
	p.mu.Lock()
	if p.gen != gen || p.conn == nil {
		p.mu.Unlock()
		return
	}
	conn := p.conn
	p.conn = nil
	close(p.stop)
	p.stop = nil
	p.mu.Unlock()
	_ = conn.Close()
	p.net.metrics.Reconnects.Inc()
	p.failPending(gen, cause)
}

// close permanently retires the slot (peer removed or network closing).
func (p *peerConn) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conn := p.conn
	gen := p.gen
	p.conn = nil
	if p.stop != nil {
		close(p.stop)
		p.stop = nil
	}
	p.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	p.failPending(gen, ErrClosed)
}

func (p *peerConn) complete(id uint64, res exchangeResult) {
	p.pendingMu.Lock()
	c, ok := p.pending[id]
	if ok {
		delete(p.pending, id)
	}
	p.pendingMu.Unlock()
	if ok {
		c.ch <- res
	}
}

func (p *peerConn) drop(id uint64) {
	p.pendingMu.Lock()
	delete(p.pending, id)
	p.pendingMu.Unlock()
}

func (p *peerConn) failPending(gen int, cause error) {
	p.pendingMu.Lock()
	var failed []chan exchangeResult
	for id, c := range p.pending {
		if c.gen == gen {
			delete(p.pending, id)
			failed = append(failed, c.ch)
		}
	}
	p.pendingMu.Unlock()
	for _, ch := range failed {
		ch <- exchangeResult{err: cause}
	}
}
