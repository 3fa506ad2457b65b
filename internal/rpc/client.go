package rpc

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Client talks to a full node's RPC API and implements node.Gateway, so
// a LightNode runs against a remote gateway exactly as it does against
// an in-process one.
//
// It keeps what it can check and asks for what can change (DESIGN.md §7):
// a transaction is immutable and named by its hash, so the tip bodies a
// tips response carries are kept, once they hash to the IDs they came
// under, for the GetTransaction calls tip validation makes next;
// difficulty and status are the gateway's to change and are asked for
// every time.
//
// Every call makes one attempt, bounded by the caller's context where it
// takes one and by the HTTP client's Timeout.
// Retrying is the caller's: a light node refreshes tips and difficulty
// and submits again, and a submission whose response was lost may have
// been admitted, so resending it blindly is not the transport's call.
type Client struct {
	base    *url.URL // parsed once; nil when baseErr is set
	baseErr error
	tips    tipCache
	http    *http.Client
}

var _ node.Gateway = (*Client)(nil)

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithHTTPClient replaces the underlying *http.Client.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// NewClient creates a client for the node at baseURL
// (e.g. "http://127.0.0.1:14265").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	base, err := url.Parse(baseURL)
	if err != nil {
		base, err = nil, fmt.Errorf("%w: %v", ErrBadBaseURL, err)
	}
	c := &Client{
		base:    base,
		baseErr: err,
		http:    &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// tipCacheSize is how many tip bodies a Client keeps. A device holds two
// between a tips call and the validation that follows it; the table is
// this much larger because one Client may serve many device sessions at
// once.
const tipCacheSize = 64

// tipCache is a two-way set-associative table of transactions, each
// filed under the ID its own bytes hash to. Nothing in it can go stale —
// an ID names one byte string for ever — so there is no expiry, only
// overwriting: a newcomer becomes the newer of the two slots its ID maps
// to, the newer becomes the older, and whoever wanted the older occupant
// misses and asks the gateway. So both tips of one response stay, even
// when their IDs map to one set. Entries are shared between callers and
// never written after they are stored.
type tipCache struct {
	slots [tipCacheSize]atomic.Pointer[txn.Transaction]
}

// set returns the two slots id maps to, the newer first.
func (c *tipCache) set(id hashutil.Hash) []atomic.Pointer[txn.Transaction] {
	i := binary.BigEndian.Uint16(id[:]) % (tipCacheSize / 2) * 2
	return c.slots[i : i+2]
}

// admit files body under id if, and only if, body is a transaction that
// hashes to id: the gateway's word for what an ID names is never taken.
func (c *tipCache) admit(id hashutil.Hash, body []byte) {
	set := c.set(id)
	newer, t := set[0].Load(), set[1].Load()
	if newer != nil && newer.ID() == id {
		return
	}
	if t == nil || t.ID() != id {
		var err error
		if t, err = txn.Decode(body); err != nil || t.ID() != id {
			return
		}
	}
	set[1].Store(newer)
	set[0].Store(t)
}

// get returns the caller's own copy of the transaction named id, or nil.
func (c *tipCache) get(id hashutil.Hash) *txn.Transaction {
	set := c.set(id)
	for i := range set {
		if t := set[i].Load(); t != nil && t.ID() == id {
			return t.Clone()
		}
	}
	return nil
}

// APIError is a non-2xx response from the node.
type APIError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("rpc status %d: %s", e.Status, e.Message)
}

// newRequest builds a request for an endpoint under the base URL parsed at
// construction — what http.NewRequestWithContext does, less the url.Parse
// per call. body may be nil.
func (c *Client) newRequest(ctx context.Context, method, path, query string, body []byte) (*http.Request, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	u := *c.base
	u.Path += path
	u.RawQuery = query
	req := &http.Request{
		Method:     method,
		URL:        &u,
		Host:       u.Host,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 1),
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
		req.ContentLength = int64(len(body))
		// GetBody lets the transport replay the body when a kept-alive
		// connection turns out to be dead before anything was written.
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		req.Body, _ = req.GetBody()
	}
	return req.WithContext(ctx), nil
}

// get runs one GET. query is the raw query string, empty for none.
func (c *Client) get(ctx context.Context, path, query string, out any) error {
	req, err := c.newRequest(ctx, http.MethodGet, path, query, nil)
	if err != nil {
		return fmt.Errorf("build rpc GET %s: %w", path, err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("rpc GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	buf := getBuf()
	defer putBuf(buf) // json.Unmarshal copies what it keeps
	if err := readBody(buf, io.LimitReader(resp.Body, 16<<20), resp.ContentLength); err != nil {
		return fmt.Errorf("read rpc response: %w", err)
	}
	body := buf.Bytes()
	if resp.StatusCode/100 != 2 {
		var apiErr ErrorResponse
		msg := string(body)
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return mapAPIError(&APIError{Status: resp.StatusCode, Message: msg})
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decode rpc response: %w", err)
	}
	return nil
}

// mapAPIError wraps well-known statuses with the node-layer sentinel
// errors so light-node retry logic works across the wire.
func mapAPIError(apiErr *APIError) error {
	switch apiErr.Status {
	case http.StatusForbidden:
		return fmt.Errorf("%w: %w", node.ErrUnauthorizedDevice, apiErr)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %w", node.ErrRateLimited, apiErr)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("%w: %w", node.ErrWrongDifficulty, apiErr)
	case http.StatusTooEarly:
		return fmt.Errorf("%w: %w", node.ErrTimestampAhead, apiErr)
	case http.StatusConflict:
		return fmt.Errorf("%w: %w", tangle.ErrDuplicate, apiErr)
	case http.StatusUnprocessableEntity:
		return fmt.Errorf("%w: %w", tangle.ErrUnknownParent, apiErr)
	default:
		return apiErr
	}
}

// Info fetches node information.
func (c *Client) Info(ctx context.Context) (InfoResponse, error) {
	var out InfoResponse
	err := c.get(ctx, "/api/v1/info", "", &out)
	return out, err
}

// Health fetches the /healthz document. The call succeeds (with the
// decoded body) for both 200 and 503 — a health prober wants the
// degraded document, not an error.
func (c *Client) Health(ctx context.Context) (node.Health, error) {
	var out node.Health
	err := c.get(ctx, "/healthz", "", &out)
	if err == nil {
		return out, nil
	}
	// A 503 healthz still carries the full Health document as its body,
	// which decodeResponse preserved as the error message.
	var apiErr *APIError
	if errors.As(err, &apiErr) &&
		json.Unmarshal([]byte(apiErr.Message), &out) == nil && out.State != "" {
		return out, nil
	}
	return node.Health{}, err
}

// Ready fetches /readyz and reports whether the node accepts traffic.
func (c *Client) Ready(ctx context.Context) bool {
	return c.get(ctx, "/readyz", "", nil) == nil
}

// Credit fetches the credit breakdown for an address.
func (c *Client) Credit(ctx context.Context, addr identity.Address) (CreditResponse, error) {
	var out CreditResponse
	err := c.get(ctx, "/api/v1/credit", "address="+addr.Hex(), &out)
	return out, err
}

// Events fetches the recorded malicious events for an address.
func (c *Client) Events(ctx context.Context, addr identity.Address) (EventsResponse, error) {
	var out EventsResponse
	err := c.get(ctx, "/api/v1/events", "address="+addr.Hex(), &out)
	return out, err
}

// TipsForApproval implements node.Gateway. The tip bodies the gateway
// sends along are kept for GetTransaction, each only if it hashes to the
// ID it came under.
func (c *Client) TipsForApproval() (hashutil.Hash, hashutil.Hash, error) {
	var out TipsResponse
	if err := c.get(context.Background(), "/api/v1/tips", "", &out); err != nil {
		return hashutil.Zero, hashutil.Zero, err
	}
	trunk, err := hashutil.FromHex(out.Trunk)
	if err != nil {
		return hashutil.Zero, hashutil.Zero, fmt.Errorf("parse trunk: %w", err)
	}
	branch, err := hashutil.FromHex(out.Branch)
	if err != nil {
		return hashutil.Zero, hashutil.Zero, fmt.Errorf("parse branch: %w", err)
	}
	c.tips.admit(trunk, out.TrunkRaw)
	if branch != trunk {
		c.tips.admit(branch, out.BranchRaw)
	}
	return trunk, branch, nil
}

// DifficultyFor implements node.Gateway. On RPC failure it returns 0,
// which a light node takes for a gateway that is down: it fails the post
// with node.ErrNodeDown instead of mining against a guessed target.
func (c *Client) DifficultyFor(addr identity.Address) int {
	var out DifficultyResponse
	if err := c.get(context.Background(), "/api/v1/difficulty", "address="+addr.Hex(), &out); err != nil {
		return 0
	}
	return out.Difficulty
}

// GetTransaction implements node.Gateway. A tip whose body came with its
// name is answered from the tip cache; anything else — never a tip,
// overwritten, or named by a gateway that sends no bodies — is fetched.
func (c *Client) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	if t := c.tips.get(id); t != nil {
		return t, nil
	}
	var out TxResponse
	if err := c.get(context.Background(), "/api/v1/transactions/"+id.Hex(), "", &out); err != nil {
		return nil, err
	}
	return txn.Decode(out.Raw)
}

// TransactionsByKind implements node.Gateway.
func (c *Client) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	q := url.Values{}
	q.Set("kind", strconv.Itoa(int(kind)))
	q.Set("offset", strconv.Itoa(offset))
	var out TxPageResponse
	if err := c.get(context.Background(), "/api/v1/transactions", q.Encode(), &out); err != nil {
		return nil, err
	}
	txs := make([]*txn.Transaction, 0, len(out.Raw))
	for _, raw := range out.Raw {
		t, err := txn.Decode(raw)
		if err != nil {
			return nil, err
		}
		txs = append(txs, t)
	}
	return txs, nil
}

// Submit implements node.Gateway. Submissions are sent exactly once,
// bounded by the caller's context.
func (c *Client) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	// A SubmitRequest, written once into a buffer of its exact size. Not a
	// pooled one: the transport may still be reading the body after Do
	// has returned an error.
	enc := t.Encode()
	body := make([]byte, 0, len(`{"raw":""}`)+base64.StdEncoding.EncodedLen(len(enc)))
	body = append(body, `{"raw":"`...)
	body = base64.StdEncoding.AppendEncode(body, enc)
	body = append(body, `"}`...)
	req, err := c.newRequest(ctx, http.MethodPost, "/api/v1/transactions", "", body)
	if err != nil {
		return tangle.Info{}, fmt.Errorf("build submit request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return tangle.Info{}, fmt.Errorf("rpc POST transactions: %w", err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if err := decodeResponse(resp, &out); err != nil {
		return tangle.Info{}, err
	}
	id, err := hashutil.FromHex(out.ID)
	if err != nil {
		return tangle.Info{}, fmt.Errorf("parse submitted id: %w", err)
	}
	return tangle.Info{
		ID:               id,
		Sender:           t.Sender(),
		Kind:             t.Kind,
		Status:           parseStatus(out.Status),
		CumulativeWeight: out.CumulativeWeight,
	}, nil
}

func parseStatus(s string) tangle.Status {
	switch s {
	case "confirmed":
		return tangle.StatusConfirmed
	case "rejected":
		return tangle.StatusRejected
	default:
		return tangle.StatusPending
	}
}

// ErrBadBaseURL is what every call of a Client built on an unparsable
// base URL returns.
var ErrBadBaseURL = errors.New("malformed rpc base url")
