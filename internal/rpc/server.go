// Package rpc exposes a full node over a RESTful HTTP interface, the
// counterpart of IRI's HTTP API in the paper's prototype ("It provides a
// convenient RESTful HTTP interface, so light nodes can post
// transactions to full nodes through the RPC interface", §V-A).
//
// Endpoints (all JSON, every response with a Content-Length):
//
//	GET  /api/v1/info                         node role, address, ledger stats
//	GET  /api/v1/tips                         two parents for approval: their IDs and,
//	                                          as trunk_raw / branch_raw, their canonical
//	                                          bytes (base64; branch_raw omitted when
//	                                          branch = trunk, either omitted for a tip
//	                                          pruned since it was selected)
//	GET  /api/v1/difficulty?address=HEX       credit-based PoW difficulty
//	GET  /api/v1/credit?address=HEX           CrP / CrN / Cr breakdown
//	GET  /api/v1/transactions/{idhex}         one transaction (base64 canonical bytes)
//	GET  /api/v1/transactions?kind=K&offset=N page of transactions by kind
//	POST /api/v1/transactions                 submit {"raw": base64}; a body over
//	                                          maxSubmitBody is refused with 413
//	GET  /metrics                             Prometheus text (not JSON): the node's
//	                                          counters and pipeline gauges and
//	                                          latency histograms, and its TCP
//	                                          gossip transport's
//
// Transaction bytes are served from the ledger's stored encoding (never a
// clone re-encoded), so what tips carries for an ID is byte-identical to
// what transactions/{id} answers for it.
//
// The Client type implements node.Gateway over this API, so a light node
// runs identically in-process or across the network. A reading costs it
// three exchanges — tips, difficulty, submit (Fig 6 steps 4–5): the tip
// bodies it must validate arrive with their names, and Client keeps them,
// checked against those names, for the GetTransaction calls that follow
// (DESIGN.md §7).
package rpc

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// InfoResponse is the /info payload.
type InfoResponse struct {
	Address      string `json:"address"`
	Role         string `json:"role"`
	Transactions int    `json:"transactions"`
	Tips         int    `json:"tips"`
	Confirmed    int    `json:"confirmed"`
	Rejected     int    `json:"rejected"`
	Conflicts    int    `json:"conflicts"`
	AuthzSeq     uint64 `json:"authz_seq"`
}

// TipsResponse is the /tips payload: the two parents to approve and the
// canonical bytes of each, so that a device validating them (Fig 6 step
// 5) need not ask again. BranchRaw is omitted when Branch equals Trunk; a
// server from before the bodies were added sends neither.
type TipsResponse struct {
	Trunk     string `json:"trunk"`
	Branch    string `json:"branch"`
	TrunkRaw  []byte `json:"trunk_raw,omitempty"`  // base64 of txn.Encode()
	BranchRaw []byte `json:"branch_raw,omitempty"` // base64 of txn.Encode()
}

// DifficultyResponse is the /difficulty payload.
type DifficultyResponse struct {
	Address    string `json:"address"`
	Difficulty int    `json:"difficulty"`
}

// CreditResponse is the /credit payload.
type CreditResponse struct {
	Address string  `json:"address"`
	CrP     float64 `json:"cr_p"`
	CrN     float64 `json:"cr_n"`
	Cr      float64 `json:"cr"`
}

// EventResponse is one recorded malicious event in the /events payload.
type EventResponse struct {
	Behaviour string   `json:"behaviour"`
	At        string   `json:"at"` // RFC 3339
	Detail    string   `json:"detail,omitempty"`
	Evidence  []string `json:"evidence,omitempty"`
}

// EventsResponse is the /events payload.
type EventsResponse struct {
	Address string          `json:"address"`
	Events  []EventResponse `json:"events"`
}

// TxResponse carries one canonical transaction encoding.
type TxResponse struct {
	Raw []byte `json:"raw"` // base64 of txn.Encode()
}

// TxPageResponse carries a page of transactions.
type TxPageResponse struct {
	Raw    [][]byte `json:"raw"`    // base64 of txn.Encode(), one per transaction
	Offset int      `json:"offset"` // next offset to poll
}

// SubmitRequest is the POST /transactions body.
type SubmitRequest struct {
	Raw []byte `json:"raw"` // base64 of txn.Encode()
}

// maxSubmitBody caps what POST /transactions reads from a device-facing
// port: the largest transaction validation accepts (txn.MaxPayloadSize of
// payload inside an envelope of parents, timestamp, issuer key, nonce and
// signature, well under 1 KiB), base64-expanded, inside the {"raw":""}
// wrapper.
const maxSubmitBody = (txn.MaxPayloadSize+1024+2)/3*4 + 64

// SubmitResponse reports an accepted submission.
type SubmitResponse struct {
	ID               string `json:"id"`
	Status           string `json:"status"`
	CumulativeWeight int    `json:"cumulative_weight"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code mirrors the HTTP status for clients that surface the body.
	Code int `json:"code"`
}

// HealthSource reports a supervised node's liveness and readiness —
// implemented by node.Supervisor. Wired with WithHealth, it backs the
// /healthz and /readyz probe endpoints.
type HealthSource interface {
	Health() node.Health
}

// Server serves the API for one full node.
type Server struct {
	source func() *node.FullNode
	health HealthSource
	mux    *http.ServeMux
	http   *http.Server
	ln     net.Listener
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithHealth wires a health source (typically the node's Supervisor)
// into /healthz and /readyz. Without it, /healthz reports a static
// "running" and /readyz tracks only whether a node is resolvable.
func WithHealth(hs HealthSource) ServerOption {
	return func(s *Server) { s.health = hs }
}

// WithNodeSource makes the server re-resolve its backing node on every
// request instead of pinning the instance passed to NewServer. A
// supervised deployment needs this: the watchdog replaces the FullNode
// on restart, and a pinned pointer would serve a closed node forever.
// The source may return nil while the node is down (requests get 503).
func WithNodeSource(src func() *node.FullNode) ServerOption {
	return func(s *Server) { s.source = src }
}

// NewServer builds (but does not start) a server for n. n may be nil
// when WithNodeSource provides the node dynamically.
func NewServer(n *node.FullNode, opts ...ServerOption) *Server {
	s := &Server{source: func() *node.FullNode { return n }, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /api/v1/info", s.withNode(s.handleInfo))
	s.mux.HandleFunc("GET /api/v1/tips", s.withNode(s.handleTips))
	s.mux.HandleFunc("GET /api/v1/difficulty", s.withNode(s.handleDifficulty))
	s.mux.HandleFunc("GET /api/v1/credit", s.withNode(s.handleCredit))
	s.mux.HandleFunc("GET /api/v1/events", s.withNode(s.handleEvents))
	s.mux.HandleFunc("GET /api/v1/transactions/{id}", s.withNode(s.handleGetTx))
	s.mux.HandleFunc("GET /api/v1/transactions", s.withNode(s.handleListTx))
	s.mux.HandleFunc("POST /api/v1/transactions", s.withNode(s.handleSubmit))
	s.mux.HandleFunc("GET /metrics", s.withNode(s.handleMetrics))
	return s
}

// ErrNodeUnavailable is served (as 503) while the backing node is down,
// e.g. mid-restart under a Supervisor.
var ErrNodeUnavailable = errors.New("node unavailable")

// withNode resolves the backing node once per request and rejects with
// 503 while it is down, so every data handler can assume a live node.
func (s *Server) withNode(h func(http.ResponseWriter, *http.Request, *node.FullNode)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := s.source()
		if n == nil {
			writeError(w, http.StatusServiceUnavailable, ErrNodeUnavailable)
			return
		}
		h(w, r, n)
	}
}

// handleHealthz reports supervised health: 200 while the node is
// running (or restarting — the watchdog still owns it), 503 once the
// supervisor has given up (state "failed"). The body is the full
// node.Health document, so operators see journal/transport/pipeline
// detail in one probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.health == nil {
		status := http.StatusOK
		if s.source() == nil {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"state": "running"})
		return
	}
	h := s.health.Health()
	status := http.StatusOK
	if h.State == node.StateFailed.String() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleReadyz is the load-balancer probe: 200 only while the node is
// accepting work. It flips to 503 the moment a graceful drain begins,
// while /healthz stays green — the standard "stop sending traffic, I'm
// not dead" split.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.health == nil {
		status := http.StatusOK
		if s.source() == nil {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]bool{"ready": status == http.StatusOK})
		return
	}
	h := s.health.Health()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Handler returns the HTTP handler (for tests with httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpc listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		_ = s.http.Serve(ln) // returns on Close
	}()
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// bufPool recycles the buffers responses are assembled in and bodies are
// read into, on both ends of the wire (client.go reads into them too).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf keeps the rare megabyte transaction from pinning a
// megabyte to the pool: a buffer grown past it is left to the collector.
const maxPooledBuf = 64 << 10

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// readBody reads r to its end into buf, sized once up front when the
// peer declared a length instead of grown as the bytes arrive.
func readBody(buf *bytes.Buffer, r io.Reader, declared int64) error {
	if declared > 0 && declared <= maxPooledBuf {
		buf.Grow(int(declared) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return err
}

// appendHex, appendBase64 and appendInt encode straight into buf.
func appendHex(buf *bytes.Buffer, src []byte) {
	buf.Grow(hex.EncodedLen(len(src)))
	buf.Write(hex.AppendEncode(buf.AvailableBuffer(), src))
}

func appendBase64(buf *bytes.Buffer, src []byte) {
	buf.Grow(base64.StdEncoding.EncodedLen(len(src)))
	buf.Write(base64.StdEncoding.AppendEncode(buf.AvailableBuffer(), src))
}

func appendInt(buf *bytes.Buffer, n int) {
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(n), 10))
}

var (
	jsonContentType       = []string{"application/json"}
	prometheusContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}
)

// writeBody sends buf as the whole response, a JSON document, its length
// declared: one write, never chunked.
func writeBody(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	writeTyped(w, status, jsonContentType, buf)
}

func writeTyped(w http.ResponseWriter, status int, contentType []string, buf *bytes.Buffer) {
	h := w.Header()
	h["Content-Type"] = contentType
	h["Content-Length"] = []string{strconv.Itoa(buf.Len())}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the device hung up: nothing to tell it
}

// writeJSON serves the endpoints off the device's per-reading path; the
// ones on it (tips, difficulty, transactions, submit) assemble their
// bodies by hand from hex and base64, which need no escaping.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		fmt.Fprintf(buf, `{"error":"encode response","code":%d}`+"\n", status)
	}
	writeBody(w, status, buf)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: status})
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request, n *node.FullNode) {
	stats := n.Tangle().StatsNow()
	writeJSON(w, http.StatusOK, InfoResponse{
		Address:      n.Address().Hex(),
		Role:         n.Role().String(),
		Transactions: stats.Transactions,
		Tips:         stats.Tips,
		Confirmed:    stats.Confirmed,
		Rejected:     stats.Rejected,
		Conflicts:    stats.Conflicts,
		AuthzSeq:     n.Registry().Seq(),
	})
}

func (s *Server) handleTips(w http.ResponseWriter, _ *http.Request, n *node.FullNode) {
	trunk, branch, err := n.TipsForApproval()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(`{"trunk":"`)
	appendHex(buf, trunk[:])
	buf.WriteString(`","branch":"`)
	appendHex(buf, branch[:])
	buf.WriteByte('"')
	// A tip snapshotted away since SelectTips named it goes without its
	// body; the device then asks for it and learns the same.
	if raw, err := n.Tangle().Encoded(trunk); err == nil {
		buf.WriteString(`,"trunk_raw":"`)
		appendBase64(buf, raw)
		buf.WriteByte('"')
	}
	if branch != trunk {
		if raw, err := n.Tangle().Encoded(branch); err == nil {
			buf.WriteString(`,"branch_raw":"`)
			appendBase64(buf, raw)
			buf.WriteByte('"')
		}
	}
	buf.WriteString("}\n")
	writeBody(w, http.StatusOK, buf)
}

func parseAddress(r *http.Request) (identity.Address, error) {
	raw := r.URL.Query().Get("address")
	if raw == "" {
		return hashutil.Zero, errors.New("missing address parameter")
	}
	return hashutil.FromHex(raw)
}

func (s *Server) handleDifficulty(w http.ResponseWriter, r *http.Request, n *node.FullNode) {
	addr, err := parseAddress(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(`{"address":"`)
	appendHex(buf, addr[:])
	buf.WriteString(`","difficulty":`)
	appendInt(buf, n.DifficultyFor(addr))
	buf.WriteString("}\n")
	writeBody(w, http.StatusOK, buf)
}

func (s *Server) handleCredit(w http.ResponseWriter, r *http.Request, n *node.FullNode) {
	addr, err := parseAddress(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c := n.Engine().CreditOf(addr, n.Clock().Now())
	writeJSON(w, http.StatusOK, CreditResponse{
		Address: addr.Hex(),
		CrP:     c.CrP,
		CrN:     c.CrN,
		Cr:      c.Cr,
	})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, n *node.FullNode) {
	addr, err := parseAddress(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	records := n.Engine().Ledger().Events(addr)
	resp := EventsResponse{Address: addr.Hex(), Events: []EventResponse{}}
	for _, rec := range records {
		ev := EventResponse{
			Behaviour: rec.Behaviour.String(),
			At:        rec.At.UTC().Format(time.RFC3339Nano),
			Detail:    rec.Detail,
		}
		for _, id := range rec.Evidence {
			ev.Evidence = append(ev.Evidence, id.Hex())
		}
		resp.Events = append(resp.Events, ev)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetTx(w http.ResponseWriter, r *http.Request, n *node.FullNode) {
	id, err := hashutil.FromHex(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	raw, err := n.Tangle().Encoded(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(`{"raw":"`)
	appendBase64(buf, raw)
	buf.WriteString("\"}\n")
	writeBody(w, http.StatusOK, buf)
}

func (s *Server) handleListTx(w http.ResponseWriter, r *http.Request, n *node.FullNode) {
	q := r.URL.Query()
	kindNum, err := strconv.Atoi(q.Get("kind"))
	if err != nil || !txn.Kind(kindNum).Valid() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad kind %q", q.Get("kind")))
		return
	}
	offset := 0
	if rawOffset := q.Get("offset"); rawOffset != "" {
		offset, err = strconv.Atoi(rawOffset)
		if err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", rawOffset))
			return
		}
	}
	page := n.Tangle().EncodedByKind(txn.Kind(kindNum), offset)
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(`{"raw":[`)
	for i, raw := range page {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		appendBase64(buf, raw)
		buf.WriteByte('"')
	}
	buf.WriteString(`],"offset":`)
	appendInt(buf, offset+len(page))
	buf.WriteString("}\n")
	writeBody(w, http.StatusOK, buf)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, n *node.FullNode) {
	body := getBuf()
	defer putBuf(body)
	if err := readBody(body, http.MaxBytesReader(w, r.Body, maxSubmitBody), r.ContentLength); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("read body: %w", err))
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	t, err := txn.Decode(req.Raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode transaction: %w", err))
		return
	}
	info, err := n.Submit(r.Context(), t)
	if err != nil {
		writeError(w, statusForSubmitError(err), err)
		return
	}
	buf := body // the request has been decoded out of it
	buf.Reset()
	buf.WriteString(`{"id":"`)
	appendHex(buf, info.ID[:])
	buf.WriteString(`","status":"`)
	buf.WriteString(info.Status.String()) // a fixed lower-case word
	buf.WriteString(`","cumulative_weight":`)
	appendInt(buf, info.CumulativeWeight)
	buf.WriteString("}\n")
	writeBody(w, http.StatusOK, buf)
}

// handleMetrics serves the node's metrics in the Prometheus text format:
// every counter of CountersView as biot_node_*_total, every counter,
// gauge and histogram of Pipeline as biot_pipeline_*, and, when the
// node's network is a transport that keeps them (gossip.TCPNetwork; a
// decorated or in-memory network does not), its TransportMetrics as
// biot_gossip_* — fixed structs of fixed-size values, so the page is
// bounded however long the node runs.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request, n *node.FullNode) {
	buf := getBuf()
	defer putBuf(buf)
	b := metrics.AppendPrometheus(buf.AvailableBuffer(), "biot_node", n.CountersView())
	b = metrics.AppendPrometheus(b, "biot_pipeline", n.Pipeline())
	if t, ok := n.Network().(transport); ok {
		b = metrics.AppendPrometheus(b, "biot_gossip", t.Metrics())
	}
	buf.Write(b)
	writeTyped(w, http.StatusOK, prometheusContentType, buf)
}

// transport is a gossip network that keeps a transport's metrics.
type transport interface {
	Metrics() gossip.TransportMetrics
}

// statusForSubmitError maps admission failures to HTTP statuses that the
// client maps back to sentinel errors.
func statusForSubmitError(err error) int {
	switch {
	case errors.Is(err, node.ErrUnauthorizedDevice), errors.Is(err, authz.ErrNotManager):
		return http.StatusForbidden
	case errors.Is(err, node.ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, node.ErrWrongDifficulty):
		return http.StatusPreconditionFailed
	case errors.Is(err, tangle.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, tangle.ErrUnknownParent):
		return http.StatusUnprocessableEntity
	default:
		if strings.Contains(err.Error(), "verify transaction") {
			return http.StatusBadRequest
		}
		return http.StatusInternalServerError
	}
}
