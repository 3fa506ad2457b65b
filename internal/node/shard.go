package node

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
)

// Two-tier sharded deployment (DESIGN.md §16). Region-local gateway
// clusters admit light-node traffic against their own tangle namespace
// and their own credit view; the inter-gateway backbone reconciles the
// shards. Reconciliation is two pulls per backbone peer:
//
//   - a scoped sync of namespace 0, so control-plane history (genesis,
//     authorization lists, key distribution) replicates globally while
//     each region's data namespace stays region-local, and
//   - a paged credit-digest exchange, so a device roaming between
//     regions carries its earned credit — and therefore its PoW
//     difficulty — instead of being re-issued the newcomer penalty.
//
// Both lanes reuse the regional machinery: the namespace pull is the
// one sync pager (pull) with a namespace scope, and digest merges
// route through the credit ledger's own idempotent mutation paths, so
// reconciling twice moves nothing.

// creditPageAccounts bounds one credit-digest page.
const creditPageAccounts = 64

// serveCreditPage answers one MsgCreditRequest: a bounded page of this
// node's credit state, address-ordered, JSON-encoded in TxData[0].
func (n *FullNode) serveCreditPage(msg gossip.Message) (*gossip.Message, error) {
	now := n.cfg.Clock.Now()
	page, next, total, more := n.engine.Ledger().DigestPage(int(msg.Offset), creditPageAccounts, now, 0)
	data, err := json.Marshal(page)
	if err != nil {
		return nil, fmt.Errorf("encode credit digest: %w", err)
	}
	return &gossip.Message{
		Type:   gossip.MsgCreditResponse,
		TxData: [][]byte{data},
		Offset: uint64(next),
		Total:  uint64(total),
		More:   more,
	}, nil
}

// pullCreditFrom pages the peer's full credit digest and merges it,
// counting what moved; err is set when the peer did not answer a request
// with a digest page.
// Digest pages always restart from offset 0: the account set mutates
// between rounds (admissions, pruning), and merging is idempotent, so
// re-shipping a window of bounded pages is cheaper than tracking a
// cursor that can silently skip accounts sorted behind it.
func (n *FullNode) pullCreditFrom(ctx context.Context, net gossip.Network, peer string) error {
	for offset, page := uint64(0), 0; page < maxSyncPages; page++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		reply, err := net.Request(ctx, peer, gossip.Message{
			Type:   gossip.MsgCreditRequest,
			Offset: offset,
		})
		if err != nil {
			return err
		}
		if reply.Type != gossip.MsgCreditResponse || len(reply.TxData) == 0 {
			return fmt.Errorf("peer %s answered a credit request with %v", peer, reply.Type)
		}
		var digest core.CreditDigest
		if err := json.Unmarshal(reply.TxData[0], &digest); err != nil {
			return fmt.Errorf("peer %s: decode credit digest: %w", peer, err)
		}
		st := n.engine.Ledger().Merge(digest)
		n.counters.CreditTxsMerged.Add(int64(st.TxsMerged))
		n.counters.CreditEventsMerged.Add(int64(st.EventsMerged))
		if !reply.More || reply.Offset <= offset {
			return nil
		}
		offset = reply.Offset
	}
	return nil
}

// Reconcile runs one round: for every backbone peer, pull the control
// namespace (scoped sync) and the credit digest; then pull credit
// digests from regional peers too. The regional pull matters because
// merged remote credit is ledger-only state — it rides no transaction,
// so the regional sync lanes never carry it; without the pull, credit
// a border gateway merged over the backbone would stay stuck there
// instead of reaching the region's other gateways. No-op when the node
// has neither fabric. Safe to call concurrently with admissions.
//
// The round counts as completed — ReconcileLag restarts from it — only
// when the node has a backbone and every backbone peer answered both
// pulls: a round whose backbone requests all failed reconciled nothing.
func (n *FullNode) Reconcile(ctx context.Context) {
	bb, reg := n.cfg.Backbone, n.cfg.Network
	completed := bb != nil
	if bb != nil {
		for _, peer := range bb.Peers() {
			_, err := n.pull(ctx, bb, peer, namespace(0))
			cerr := n.pullCreditFrom(ctx, bb, peer)
			completed = completed && err == nil && cerr == nil
		}
	}
	if reg != nil {
		for _, peer := range reg.Peers() {
			_ = n.pullCreditFrom(ctx, reg, peer) // regional pulls do not decide whether the backbone round completed
		}
	}
	if completed {
		n.lastReconcile.Store(n.cfg.Clock.Now().UnixNano())
	}
}

// ReconcileLag reports the time since the last completed backbone
// round; ok is false when no round has completed yet (or the node has
// no backbone).
func (n *FullNode) ReconcileLag() (lag time.Duration, ok bool) {
	at := n.lastReconcile.Load()
	if at == 0 {
		return 0, false
	}
	return n.cfg.Clock.Now().Sub(time.Unix(0, at)), true
}
