package node

import (
	"runtime"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// verifiedCacheSize bounds the set of recently verified transaction
// IDs. Gossip is redundant by design — the same transaction arrives
// from several peers and again in sync pages — and signature + PoW
// verification is the admitted hot cost of the inbound path, so a hit
// here skips the entire ECDSA check for an echo.
const verifiedCacheSize = 8192

// verifiedCache is a small mutex-guarded set of the transaction IDs
// whose structural, signature and relay-PoW checks most recently passed
// on this node. Membership does NOT cache an authorization verdict: the
// evidence-at-admission gate is re-evaluated at the attach stage on
// every attempt (it is monotone — a cached Authorized can only stay
// authorized — but an Unresolved entry must keep retrying as lists
// arrive).
//
// It keeps two generations: an ID enters the young one, and when that
// holds half the capacity it becomes the old one and the previous old
// one is forgotten. An ID is therefore remembered for at least cap/2
// and at most cap further insertions — recency by insertion, which is
// what echo suppression needs (an echo follows its original within a
// round trip or a sync page) — at one map slot an entry. The
// list-backed LRU this replaces paid a list element, a boxed key and a
// pointer-valued slot for each: 1.7 MB a node at this capacity against
// 0.6 MB, on every node whether or not an echo ever arrives.
type verifiedCache struct {
	mu         sync.Mutex
	half       int
	young, old map[hashutil.Hash]struct{}
}

func newVerifiedCache(capacity int) *verifiedCache {
	half := (capacity + 1) / 2
	return &verifiedCache{
		half:  half,
		young: make(map[hashutil.Hash]struct{}, half),
		old:   make(map[hashutil.Hash]struct{}, half),
	}
}

// Contains reports membership.
func (c *verifiedCache) Contains(id hashutil.Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.young[id]; ok {
		return true
	}
	_, ok := c.old[id]
	return ok
}

// Add inserts id, retiring the older generation once the younger one
// is full.
func (c *verifiedCache) Add(id hashutil.Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.young[id] = struct{}{}
	if len(c.young) >= c.half {
		clear(c.old)
		c.young, c.old = c.old, c.young
	}
}

// newVerifySem sizes the inbound verification pool: verification is
// CPU-bound (ECDSA + hashing), so the bound is the core count, shared
// across every concurrently arriving gossip batch.
func newVerifySem() chan struct{} {
	return make(chan struct{}, runtime.GOMAXPROCS(0))
}

// verifyCached runs the full inbound verification for one transaction,
// short-circuiting through the verified-ID set on gossip echoes. It
// performs exactly the batch path's checks in the same order —
// precheckInbound (structure, evidence gate, relay PoW floor) then the
// Ed25519 signature — so the two paths count rejections identically.
func (n *FullNode) verifyCached(t *txn.Transaction, now time.Time) error {
	id := t.ID()
	if n.verified.Contains(id) {
		n.pipeline.VerifyCacheHits.Inc()
		return nil
	}
	start := time.Now()
	err := n.precheckInbound(t)
	if err == nil {
		if serr := identity.Verify(t.Issuer, t.SigningBytes(), t.Signature); serr != nil {
			n.counters.Rejected.Inc()
			err = serr
		}
	}
	n.pipeline.VerifyLatency.Observe(time.Since(start))
	if err == nil {
		n.verified.Add(id)
	}
	return err
}

// batchVerifyChunk caps how many signatures one VerifyBatch call
// settles. The shared-ladder saving grows with batch size but so does
// the cost of a fallback (one bad signature re-verifies the whole
// chunk per-signature), and chunking is also what spreads a large
// inbound batch across the verification pool's cores.
const batchVerifyChunk = 64

// verifyInboundBatch verifies a run of transactions and returns the
// survivors in input order. The serialized attach that follows stays
// out of this stage, so the expensive checks of independent
// transactions overlap across cores — and across concurrently arriving
// batches from different peers.
//
// The work runs in two stages. Stage one performs the cheap
// per-transaction checks inline: verified-set lookup, structure,
// authorization, and the relay PoW floor — all allocation-free against
// the decoded transaction's cached encoding. Stage two settles every
// surviving signature with chunked identity.VerifyBatch calls on the
// verification pool: a chunk of k costs one shared doubling ladder
// instead of k independent double-scalar multiplications, and a failed
// chunk falls back to per-signature attribution so offenders are
// rejected exactly as the sequential path would.
func (n *FullNode) verifyInboundBatch(txs []*txn.Transaction, now time.Time) []*txn.Transaction {
	switch len(txs) {
	case 0:
		return nil
	case 1:
		if n.verifyCached(txs[0], now) != nil {
			return nil
		}
		return txs
	}

	ok := make([]bool, len(txs))
	pending := make([]int, 0, len(txs)) // indices awaiting signature settlement
	for i, t := range txs {
		if n.verified.Contains(t.ID()) {
			n.pipeline.VerifyCacheHits.Inc()
			ok[i] = true
			continue
		}
		if n.precheckInbound(t) == nil {
			pending = append(pending, i)
		}
	}

	var wg sync.WaitGroup
	for start := 0; start < len(pending); start += batchVerifyChunk {
		end := start + batchVerifyChunk
		if end > len(pending) {
			end = len(pending)
		}
		chunk := pending[start:end]
		n.verifySem <- struct{}{} // global CPU bound across batches
		n.pipeline.VerifyBusy.Inc()
		n.pipeline.VerifyPeak.StoreMax(n.pipeline.VerifyBusy.Value())
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			defer func() {
				n.pipeline.VerifyBusy.Dec()
				<-n.verifySem
			}()
			pubs := make([]identity.PublicKey, len(chunk))
			msgs := make([][]byte, len(chunk))
			sigs := make([][]byte, len(chunk))
			for j, i := range chunk {
				pubs[j] = txs[i].Issuer
				msgs[j] = txs[i].SigningBytes()
				sigs[j] = txs[i].Signature
			}
			start := time.Now()
			errs := identity.VerifyBatch(pubs, msgs, sigs)
			n.pipeline.VerifyLatency.Observe(time.Since(start))
			n.pipeline.BatchVerifies.Inc()
			n.pipeline.BatchVerified.Add(int64(len(chunk)))
			if errs != nil {
				n.pipeline.BatchFallbacks.Inc()
			}
			for j, i := range chunk {
				if errs != nil && errs[j] != nil {
					n.counters.Rejected.Inc()
					continue
				}
				ok[i] = true
				n.verified.Add(txs[i].ID())
			}
		}(chunk)
	}
	wg.Wait()

	out := txs[:0]
	for i, t := range txs {
		if ok[i] {
			out = append(out, t)
		}
	}
	return out
}

// precheckInbound runs every relay-admission check except the
// signature: structure, the evidence-at-admission authorization gate,
// and the relay PoW floor — the Ed25519 verification is factored out
// for batch settlement.
//
// The authorization gate here is advisory DoS protection, not the
// decision: only a DEFINITIVE Unauthorized verdict (the sender is a
// member of no retained list version reachable from the transaction's
// evidence — a Sybil) rejects early, sparing the signature work.
// Authorized and Unresolved both continue; the authoritative verdict
// is re-taken at the attach stage, where an Unresolved transaction
// parks in quarantine instead of being dropped.
func (n *FullNode) precheckInbound(t *txn.Transaction) error {
	if err := t.VerifyStructure(); err != nil {
		n.counters.Rejected.Inc()
		return err
	}
	if t.Kind == txn.KindAuthorization {
		if t.Sender() != n.registry.Manager() {
			n.counters.Unauthorized.Inc()
			return authz.ErrNotManager
		}
	} else if verdict, _, ok := n.relayAuthVerdict(t); ok && verdict == authz.VerdictUnauthorized {
		n.counters.StaleAuthRejects.Inc()
		return ErrUnauthorizedDevice
	}
	return n.verifyRelayDifficulty(t)
}
