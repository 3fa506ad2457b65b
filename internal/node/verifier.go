package node

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// verifyStage is the verify of verify → gate → commit → replicate: the one
// place signatures are settled in bulk. Relayed batches and sync pages
// (verifyInboundBatch) and journal replay (verifyJournaled) hand it a run
// of in-flight records — views of bytes, nothing decoded — and get back
// what is wrong with each; what a failure means — a counted reject, a
// refused journal — stays with the caller.
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

// settle checks the issuer signature of every record in recs,
// batchVerifyChunk at a time across the verification pool, and reports
// per transaction: nil when every signature verifies, else a slice in
// input order whose entry is nil for the valid ones. A chunk of k costs one
// shared doubling ladder instead of k independent double-scalar
// multiplications, and a failed chunk falls back to per-signature
// attribution, so offenders are named exactly as identity.Verify would
// name them. A run of one chunk is settled on the caller's goroutine.
func (v *verifyStage) settle(recs []inflight) []error {
	if len(recs) <= batchVerifyChunk {
		return v.settleChunk(recs)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for start := 0; start < len(recs); start += batchVerifyChunk {
		end := min(start+batchVerifyChunk, len(recs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := v.settleChunk(recs[start:end])
			if chunk == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if errs == nil {
				errs = make([]error, len(recs))
			}
			copy(errs[start:], chunk)
		}()
	}
	wg.Wait()
	return errs
}

// settleChunk settles one chunk with one identity.VerifyBatch call, on a
// slot of the pool.
func (v *verifyStage) settleChunk(recs []inflight) []error {
	if len(recs) == 0 {
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
	for i, rec := range recs {
		pubs[i], msgs[i], sigs[i] = rec.Issuer(), rec.SigningBytes(), rec.Signature()
	}
	start := time.Now()
	errs := identity.VerifyBatch(pubs[:len(recs)], msgs[:len(recs)], sigs[:len(recs)])
	v.metrics.VerifyLatency.Observe(time.Since(start))
	v.metrics.BatchVerifies.Inc()
	v.metrics.BatchVerified.Add(int64(len(recs)))
	if errs != nil {
		v.metrics.BatchFallbacks.Inc()
	}
	return errs
}

// verifyInboundBatch verifies a run of relayed transactions — a batch of
// one like any other — and returns the survivors in input order, in
// recs's own backing array. The serialized attach that follows stays out
// of this stage, so the expensive checks of independent transactions
// overlap across cores — and across concurrently arriving batches from
// different peers.
//
// The work runs in two stages. Stage one performs the cheap
// per-transaction checks inline: structure, authorization, and the relay
// PoW floor — all allocation-free, read from the viewed bytes. Stage two
// settles every surviving signature through the verify stage (a lone one
// single-verified, below identity.MinBatchSize); an offender is counted
// once, whichever way its signature was settled. Echoes of attached
// transactions never get here: admitGossipBatch drops them at
// tangle.Contains.
func (n *FullNode) verifyInboundBatch(recs []inflight) []inflight {
	pending := recs[:0]
	for _, rec := range recs {
		if n.precheckInbound(rec.View) == nil {
			pending = append(pending, rec)
		}
	}
	errs := n.verify.settle(pending)
	out := pending[:0]
	for j, rec := range pending {
		if errs != nil && errs[j] != nil {
			n.counters.Rejected.Inc()
			continue
		}
		out = append(out, rec)
	}
	return out
}

// precheckInbound runs every relay-admission check except the
// signature: structure, the evidence-at-admission authorization gate,
// and the relay PoW floor — gossip broadcasts and sync pages alike; the
// Ed25519 verification is factored out for batch settlement.
//
// The authorization gate here is advisory DoS protection, not the
// decision: only a DEFINITIVE Unauthorized verdict (the sender is a
// member of no retained list version reachable from the transaction's
// evidence — a Sybil) rejects early, sparing the signature work.
// Authorized and Unresolved both continue; the authoritative verdict
// is re-taken at the attach stage, where an Unresolved transaction
// parks in quarantine instead of being dropped.
func (n *FullNode) precheckInbound(v txn.View) error {
	if err := v.VerifyStructure(); err != nil {
		n.counters.Rejected.Inc()
		return err
	}
	if v.Kind() == txn.KindAuthorization {
		if v.Sender() != n.registry.Manager() {
			n.counters.Unauthorized.Inc()
			return authz.ErrNotManager
		}
	} else if verdict, _, ok := n.relayAuthVerdict(v); ok && verdict == authz.VerdictUnauthorized {
		n.counters.StaleAuthRejects.Inc()
		return ErrUnauthorizedDevice
	}
	// The PoW floor, not this node's credit-derived demand: that is enforced
	// once, at the submission edge (admit). A relay cannot re-derive it — the
	// miner's view may count weight from the transaction's own descendants —
	// and demanding it wedged catch-up sync forever in the chaos soak.
	if err := v.VerifyPoW(n.engine.Ledger().Params().MinDifficulty); err != nil {
		n.counters.Rejected.Inc()
		return fmt.Errorf("%w: %v", ErrWrongDifficulty, err)
	}
	return nil
}
