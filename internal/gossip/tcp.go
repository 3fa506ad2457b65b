package gossip

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
)

// TCPNetwork implements Network over real sockets with a persistent
// multiplexed transport. Each exchange is one request frame and one
// response frame (see frame.go): a 4-byte length word, a kind byte, an
// 8-byte request ID and one canonically encoded Message, which batches
// any number of transaction payloads. Because responses carry the
// request ID they answer, any number of exchanges multiplex over one
// socket concurrently.
//
// The pool keeps one dialed connection per peer, established lazily on
// first use and re-established lazily after failure with exponential
// backoff + jitter; idle connections stay warm via keepalive pings.
// Broadcast fans out to every peer concurrently, so one slow or dead
// peer costs max(peer latency), not the sum.
type TCPNetwork struct {
	listener net.Listener
	// The timings: the constants below, which only tests shorten.
	dialTO, ioTO, keepalive time.Duration
	backoffMin, backoffMax  time.Duration
	metrics                 TransportMetrics
	nextReq                 atomic.Uint64

	mu    sync.RWMutex
	peers map[string]struct{}
	// peerList is peers sorted, rebuilt (never edited in place) when the
	// set changes, so Peers hands it out without copying.
	peerList []string
	conns    map[string]*peerConn
	accepted map[net.Conn]struct{}
	handler  Handler
	closed   bool

	wg sync.WaitGroup
}

var _ Network = (*TCPNetwork)(nil)

// maxInboundPerConn bounds concurrent handler invocations per accepted
// connection, so one chatty peer cannot spawn unbounded goroutines.
const maxInboundPerConn = 32

// The transport's timings. A peer is dialled within dialTimeout; an
// exchange's write, and the wait for its reply, each get ioTimeout; an idle
// pooled connection is pinged every keepaliveEvery, and an accepted one
// that stays silent for 4× that is dropped; a failed dial holds the next
// one off for redialMin, doubling per failure up to redialMax.
const (
	dialTimeout    = 3 * time.Second
	ioTimeout      = 10 * time.Second
	keepaliveEvery = 15 * time.Second
	redialMin      = 50 * time.Millisecond
	redialMax      = 5 * time.Second
)

// ListenTCP starts a gossip endpoint on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (*TCPNetwork, error) {
	return listenTCP(addr, nil)
}

// listenTCP is ListenTCP with tune, when non-nil, applied to the timings
// before the accept loop starts: the seam through which tests shorten them.
func listenTCP(addr string, tune func(*TCPNetwork)) (*TCPNetwork, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gossip listen %s: %w", addr, err)
	}
	n := &TCPNetwork{
		listener:   ln,
		dialTO:     dialTimeout,
		ioTO:       ioTimeout,
		keepalive:  keepaliveEvery,
		backoffMin: redialMin,
		backoffMax: redialMax,
		peers:      make(map[string]struct{}),
		conns:      make(map[string]*peerConn),
		accepted:   make(map[net.Conn]struct{}),
	}
	if tune != nil {
		tune(n)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Metrics exposes the transport's counters and latency surfaces.
func (n *TCPNetwork) Metrics() *TransportMetrics { return &n.metrics }

// AddPeer registers a peer's gossip address.
func (n *TCPNetwork) AddPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, known := n.peers[addr]; !known && addr != n.listener.Addr().String() {
		n.peers[addr] = struct{}{}
		n.rebuildPeerListLocked()
	}
}

// rebuildPeerListLocked replaces peerList after the peer set changed.
func (n *TCPNetwork) rebuildPeerListLocked() {
	list := make([]string, 0, len(n.peers))
	for addr := range n.peers {
		list = append(list, addr)
	}
	sort.Strings(list)
	n.peerList = list
}

// RemovePeer forgets a peer and retires its pooled connection;
// exchanges in flight on it fail over to the sync path.
func (n *TCPNetwork) RemovePeer(addr string) {
	n.mu.Lock()
	if _, known := n.peers[addr]; known {
		delete(n.peers, addr)
		n.rebuildPeerListLocked()
	}
	pc := n.conns[addr]
	delete(n.conns, addr)
	n.mu.Unlock()
	if pc != nil {
		pc.close()
	}
}

// Self implements Network.
func (n *TCPNetwork) Self() string { return n.listener.Addr().String() }

// Peers implements Network. The returned slice is shared until the
// peer set next changes: read it, do not modify it.
func (n *TCPNetwork) Peers() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peerList
}

// SetHandler implements Network.
func (n *TCPNetwork) SetHandler(h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

func (n *TCPNetwork) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn is the accept-side frame loop. It reads request frames for
// the connection's lifetime. Transaction batches are handled here, one
// at a time in frame order: with the sender's frames leaving in request
// order (peerConn.exchange) that is per-pair FIFO delivery, which a
// sender keeping several batches in flight relies on — a batch handled
// before the one carrying its parents is an orphan. Every other request
// (sync pages, credit pages, snapshot manifests) goes to its own bounded
// handler goroutine, so a slow sync response does not block the next
// inbound transaction batch on the same socket. Response writes are
// serialized; responses may therefore interleave out of request order,
// which the request ID makes safe. Each request is read into a pooled
// inboundRequest and decoded into its scratch — a batch's TxData headers,
// a sync request's Have window — which is reused once the Handler has
// returned and the reply is written: like the frame, the Handler may not
// keep them.
func (n *TCPNetwork) serveConn(conn net.Conn) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
		_ = conn.Close()
	}()
	var writeMu sync.Mutex
	from := conn.RemoteAddr().String()
	// serve answers one request and hands back req, which msg aliases: the
	// handler has returned and the reply is written.
	serve := func(h Handler, id uint64, msg Message, req *inboundRequest) {
		var reply *Message
		if h != nil {
			if r, herr := h.HandleGossip(from, msg); herr == nil && r != nil && !r.isZero() {
				reply = r
			}
		}
		frame := framePool.Get().(*[]byte)
		if reply != nil {
			*frame = frameMessage(*frame, FrameResponse, id, *reply)
		} else {
			*frame = appendFrame(*frame, FrameResponse, id, emptyAck)
		}
		writeMu.Lock()
		_ = conn.SetWriteDeadline(time.Now().Add(n.ioTO))
		nw, _ := conn.Write(*frame)
		writeMu.Unlock()
		n.metrics.BytesOut.Add(int64(nw))
		framePool.Put(frame)
		requestPool.Put(req)
	}
	sem := make(chan struct{}, maxInboundPerConn)
	reader := bufio.NewReader(conn)
	// The idle deadline per frame: the client's keepalives refresh it, so
	// only a dead or silent peer reaches it.
	idle := max(4*n.keepalive, n.ioTO)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
		req := requestPool.Get().(*inboundRequest)
		kind, id, payload, wire, err := readFrame(reader, req.frame)
		if err != nil {
			return // framing violation, idle timeout or peer gone
		}
		req.frame = payload
		n.metrics.BytesIn.Add(int64(wire))
		if kind != FrameRequest {
			requestPool.Put(req)
			continue // pings refresh the deadline; stray responses are noise
		}
		msg, err := decodeMessage(payload, req.txData, req.have)
		if err != nil {
			return // valid frame, invalid message: drop the confused peer
		}
		req.keep(msg)
		n.mu.RLock()
		h := n.handler
		n.mu.RUnlock()
		if msg.Type == MsgTransaction {
			serve(h, id, msg, req)
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			serve(h, id, msg, req)
		}()
	}
}

// inboundRequest is one request frame read on the accept side and the
// scratch its message is decoded into: TxData headers, which point into
// the frame, and the Have IDs, copied out of it. The three are pooled
// together, so the headers never keep another request's frame alive.
type inboundRequest struct {
	frame  []byte
	txData [][]byte
	have   []hashutil.Hash
}

var requestPool = sync.Pool{New: func() any { return new(inboundRequest) }}

// keep remembers the scratch msg was decoded into when decoding had to
// grow it, so the next request reuses the larger.
func (r *inboundRequest) keep(msg Message) {
	if cap(msg.TxData) > cap(r.txData) {
		r.txData = msg.TxData[:0]
	}
	if cap(msg.Have) > cap(r.have) {
		r.have = msg.Have[:0]
	}
}

// conn returns (creating if needed) the pool slot for addr.
func (n *TCPNetwork) conn(addr string) *peerConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	pc, ok := n.conns[addr]
	if !ok {
		pc = newPeerConn(n, addr)
		n.conns[addr] = pc
	}
	return pc
}

// begin opens an exchange with addr: the pool slot it goes through, its
// place in that peer's frame order and its request ID. The place is
// taken here, before the caller encodes anything, so a caller that
// started first goes out first however long its message takes to
// render; the caller must pass it to pc.exchange, which releases it.
func (n *TCPNetwork) begin(ctx context.Context, addr string) (pc *peerConn, place ticket, id uint64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, ticket{}, 0, err
	}
	if pc = n.conn(addr); pc == nil {
		return nil, ticket{}, 0, ErrClosed
	}
	return pc, pc.order.take(), n.nextReq.Add(1), nil
}

// Broadcast implements Network. The fan-out is concurrent — one
// goroutine per peer over that peer's persistent connection — so
// broadcast latency tracks the slowest single peer rather than the sum
// of all of them.
func (n *TCPNetwork) Broadcast(ctx context.Context, msg Message) error {
	peers := n.Peers()
	if len(peers) == 0 {
		return nil
	}
	payload := EncodeMessage(msg)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		lastErr   error
		delivered int
	)
	for _, addr := range peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			pc, place, id, err := n.begin(ctx, addr)
			if err == nil {
				_, err = pc.exchange(ctx, place, id, EncodeFrame(FrameRequest, id, payload), nil)
			}
			if err != nil {
				mu.Lock()
				lastErr = err
				mu.Unlock()
				return
			}
			mu.Lock()
			delivered++
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	if delivered == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lastErr != nil {
			return fmt.Errorf("broadcast reached no peers: %w", lastErr)
		}
	}
	return nil
}

// Request implements Network.
func (n *TCPNetwork) Request(ctx context.Context, peer string, msg Message) (Message, error) {
	pc, place, id, err := n.begin(ctx, peer)
	if err != nil {
		return Message{}, err
	}
	frame := framePool.Get().(*[]byte)
	*frame = frameMessage(*frame, FrameRequest, id, msg)
	reply, err := pc.exchange(ctx, place, id, *frame, ReplyBufferOf(ctx))
	framePool.Put(frame) // written or never sent: nothing holds it now
	return reply, err
}

// Close implements Network: it stops accepting, retires every pooled
// connection (failing exchanges still pending on them), closes accepted
// connections and waits for every transport goroutine — including
// in-flight inbound handlers — to drain.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*peerConn, 0, len(n.conns))
	for _, pc := range n.conns {
		conns = append(conns, pc)
	}
	n.conns = make(map[string]*peerConn)
	accepted := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		accepted = append(accepted, c)
	}
	n.mu.Unlock()

	err := n.listener.Close()
	for _, pc := range conns {
		pc.close()
	}
	for _, c := range accepted {
		_ = c.Close()
	}
	n.wg.Wait()
	return err
}
