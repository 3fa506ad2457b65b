// Package gossip provides the broadcast network connecting B-IoT full
// nodes: "gateways ... keep the network secure and stable by
// broadcasting transactions and keeping copies of the blockchain"
// (paper §IV-A4).
//
// Two transports implement the same Network interface:
//
//   - Bus: an in-memory network for simulations and tests, with
//     configurable latency and partition injection;
//   - TCP: persistent multiplexed connections over real sockets, used by
//     the cmd/biot-node binary. Each exchange is a request frame and a
//     response frame — a length word, a kind byte and a request ID in
//     front of one Message in the canonical binary codec (frame.go,
//     encode.go) — so many exchanges share one socket at once.
package gossip

import (
	"context"
	"errors"
	"fmt"

	"github.com/b-iot/biot/internal/hashutil"
)

// MsgType enumerates gossip message types.
type MsgType int

const (
	// MsgTransaction carries newly attached transactions.
	MsgTransaction MsgType = iota + 1
	// MsgSyncRequest asks a peer for transactions the sender is missing;
	// Have carries the IDs the sender already knows.
	MsgSyncRequest
	// MsgSyncResponse returns the requested transaction bytes.
	MsgSyncResponse
	// MsgSnapshotRequest asks a peer for its snapshot manifest: the
	// epoch boundary a fresh node can bootstrap from without replaying
	// pruned history.
	MsgSnapshotRequest
	// MsgSnapshotResponse carries the JSON-encoded manifest in
	// TxData[0].
	MsgSnapshotResponse
	// MsgCreditRequest asks a backbone peer for one page of its credit
	// digest: Offset is the requester's cursor into the responder's
	// account order. Its wire value stays 8 with 6 and 7 retired: peers
	// tell types apart by number.
	MsgCreditRequest MsgType = iota + 3
	// MsgCreditResponse carries one JSON-encoded core.CreditDigest page
	// in TxData[0]; Offset/Total/More page exactly like sync responses.
	MsgCreditResponse
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgTransaction:
		return "transaction"
	case MsgSyncRequest:
		return "sync-request"
	case MsgSyncResponse:
		return "sync-response"
	case MsgSnapshotRequest:
		return "snapshot-request"
	case MsgSnapshotResponse:
		return "snapshot-response"
	case MsgCreditRequest:
		return "credit-request"
	case MsgCreditResponse:
		return "credit-response"
	default:
		return fmt.Sprintf("msgtype(%d)", int(t))
	}
}

// Message is one gossip datagram.
type Message struct {
	Type MsgType `json:"type"`
	// TxData carries canonical transaction encodings (MsgTransaction,
	// MsgSyncResponse).
	TxData [][]byte `json:"tx_data,omitempty"`
	// Have carries known transaction IDs. Sync requests bound it to a
	// recent window (node.SyncHaveWindow) rather than the full ledger,
	// so sync message size stays constant as the DAG grows.
	Have []hashutil.Hash `json:"have,omitempty"`
	// Offset pages the sync exchange: on MsgSyncRequest it is the
	// requester's cursor into the responder's attachment order; on
	// MsgSyncResponse it is the next cursor to request.
	Offset uint64 `json:"offset,omitempty"`
	// Total is the responder's ledger size at response time; a total
	// below the requester's cursor signals the responder reset (restart,
	// snapshot) and the cursor rewinds.
	Total uint64 `json:"total,omitempty"`
	// More reports that the responder has pages beyond Offset.
	More bool `json:"more,omitempty"`
	// Shard is the tangle namespace the message is scoped to when
	// Scoped is set: transaction batches carry the namespace their
	// TxData belongs to, and scoped sync requests/responses page one
	// namespace's attachment order instead of the whole ledger.
	// Namespace 0 is the control plane (genesis, authorization lists),
	// namespaces >= 1 are region data shards.
	Shard uint64 `json:"shard,omitempty"`
	// Scoped distinguishes a namespace-scoped message from a legacy
	// whole-ledger one. An unscoped message must carry Shard == 0 (the
	// codec enforces this, keeping the encoding canonical).
	Scoped bool `json:"scoped,omitempty"`
}

// Handler is implemented by the full-node layer to consume gossip.
type Handler interface {
	// HandleGossip processes an incoming message and optionally returns
	// a reply (sync responses). from identifies the sending peer.
	// msg.TxData and msg.Have may alias buffers the transport reuses once
	// the call has returned: decode or copy what is to outlive it.
	HandleGossip(from string, msg Message) (*Message, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from string, msg Message) (*Message, error)

var _ Handler = HandlerFunc(nil)

// HandleGossip implements Handler.
func (f HandlerFunc) HandleGossip(from string, msg Message) (*Message, error) {
	return f(from, msg)
}

// Network is a node's attachment to the gossip layer.
type Network interface {
	// Self returns this node's peer identifier (bus name or TCP addr).
	Self() string
	// Peers returns the currently known peer identifiers.
	Peers() []string
	// Broadcast delivers msg to every reachable peer. Per-peer failures
	// are collected; a broadcast succeeds if any peer was reached (or
	// there are no peers).
	Broadcast(ctx context.Context, msg Message) error
	// Request sends msg to one peer and waits for its reply. msg is the
	// caller's again once Request returns: an implementation that keeps
	// any of it longer (a decorator holding a datagram back) copies it.
	// A reply may be read into a buffer the caller lent under ctx
	// (WithReplyBuffer): a decorator passes ctx on to the transport.
	Request(ctx context.Context, peer string, msg Message) (Message, error)
	// SetHandler installs the inbound message handler. Must be called
	// before the network receives traffic.
	SetHandler(h Handler)
	// Close detaches from the network and releases resources.
	Close() error
}

// Common transport errors.
var (
	ErrNoHandler   = errors.New("gossip handler not installed")
	ErrUnknownPeer = errors.New("unknown gossip peer")
	ErrClosed      = errors.New("gossip network closed")
	ErrPartitioned = errors.New("peers are partitioned")
	ErrNoReply     = errors.New("peer returned no reply")
	// ErrBackoff reports an exchange refused because the peer's
	// reconnect backoff window has not elapsed yet (fail fast instead of
	// re-dialing a known-dead peer on every exchange).
	ErrBackoff = errors.New("peer dial backing off")
)
