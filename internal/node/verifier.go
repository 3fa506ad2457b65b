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

// verifyStage is the verify of verify → gate → commit → replicate: the one
// place signatures are settled in bulk. Relayed batches and sync pages
// (verifyInboundBatch) and journal replay (verifyJournaled) hand it a run
// of transactions and get back what is wrong with each; what a failure
// means — a counted reject, a refused journal — stays with the caller.
type verifyStage struct {
	// sem is the verification pool: verification is CPU-bound (Ed25519 +
	// hashing), so the bound is the core count, shared across every run in
	// flight — concurrently arriving gossip batches included.
	sem     chan struct{}
	metrics PipelineMetrics
}

func newVerifyStage(metrics PipelineMetrics) *verifyStage {
	return &verifyStage{sem: make(chan struct{}, runtime.GOMAXPROCS(0)), metrics: metrics}
}

// batchVerifyChunk caps how many signatures one VerifyBatch call
// settles, and so how large the kernel's pooled scratch grows. The
// shared-ladder saving grows with batch size but so does the cost of a
// fallback (one bad signature re-verifies the whole chunk
// per-signature), and chunking is also what spreads a large run across
// the verification pool's cores.
const batchVerifyChunk = 64

// settle checks the issuer signature of every transaction in txs,
// batchVerifyChunk at a time across the verification pool, and reports
// per transaction: nil when every signature verifies, else a slice in
// input order whose entry is nil for the valid ones. A chunk of k costs one
// shared doubling ladder instead of k independent double-scalar
// multiplications, and a failed chunk falls back to per-signature
// attribution, so offenders are named exactly as identity.Verify would
// name them. A run of one chunk is settled on the caller's goroutine.
func (v *verifyStage) settle(txs []*txn.Transaction) []error {
	if len(txs) <= batchVerifyChunk {
		return v.settleChunk(txs)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for start := 0; start < len(txs); start += batchVerifyChunk {
		end := min(start+batchVerifyChunk, len(txs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := v.settleChunk(txs[start:end])
			if chunk == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if errs == nil {
				errs = make([]error, len(txs))
			}
			copy(errs[start:], chunk)
		}()
	}
	wg.Wait()
	return errs
}

// settleChunk settles one chunk with one identity.VerifyBatch call, on a
// slot of the pool.
func (v *verifyStage) settleChunk(txs []*txn.Transaction) []error {
	if len(txs) == 0 {
		return nil
	}
	v.sem <- struct{}{}
	v.metrics.VerifyBusy.Inc()
	v.metrics.VerifyPeak.StoreMax(v.metrics.VerifyBusy.Value())
	defer func() {
		v.metrics.VerifyBusy.Dec()
		<-v.sem
	}()
	var (
		pubs [batchVerifyChunk]identity.PublicKey
		msgs [batchVerifyChunk][]byte
		sigs [batchVerifyChunk][]byte
	)
	for i, t := range txs {
		pubs[i], msgs[i], sigs[i] = t.Issuer, t.SigningBytes(), t.Signature
	}
	start := time.Now()
	errs := identity.VerifyBatch(pubs[:len(txs)], msgs[:len(txs)], sigs[:len(txs)])
	v.metrics.VerifyLatency.Observe(time.Since(start))
	v.metrics.BatchVerifies.Inc()
	v.metrics.BatchVerified.Add(int64(len(txs)))
	if errs != nil {
		v.metrics.BatchFallbacks.Inc()
	}
	return errs
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

// verifyInboundBatch verifies a run of relayed transactions and returns
// the survivors in input order. The serialized attach that follows stays
// out of this stage, so the expensive checks of independent
// transactions overlap across cores — and across concurrently arriving
// batches from different peers.
//
// The work runs in two stages. Stage one performs the cheap
// per-transaction checks inline: verified-set lookup, structure,
// authorization, and the relay PoW floor — all allocation-free against
// the decoded transaction's cached encoding. Stage two settles every
// surviving signature through the verify stage; an offender is rejected
// exactly as the sequential path would reject it.
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
	pending := make([]*txn.Transaction, 0, len(txs)) // awaiting signature settlement
	at := make([]int, 0, len(txs))                   // pending[j] is txs[at[j]]
	for i, t := range txs {
		if n.verified.Contains(t.ID()) {
			n.pipeline.VerifyCacheHits.Inc()
			ok[i] = true
			continue
		}
		if n.precheckInbound(t) == nil {
			pending, at = append(pending, t), append(at, i)
		}
	}
	errs := n.verify.settle(pending)
	for j, t := range pending {
		if errs != nil && errs[j] != nil {
			n.counters.Rejected.Inc()
			continue
		}
		ok[at[j]] = true
		n.verified.Add(t.ID())
	}

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
