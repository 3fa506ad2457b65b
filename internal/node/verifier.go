package node

import (
	"runtime"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/identity"
)

// verifyStage is the verify of verify → gate → commit → replicate: the one
// place signatures are settled. The gate hands it a run of in-flight
// records — views of bytes, nothing decoded — from every edge: a
// submission (a run of one), a relayed batch, a sync page, a probe reply,
// a journal run; and gets back what is wrong with each.
type verifyStage struct {
	// sem is the verification pool: verification is CPU-bound (Ed25519 +
	// hashing), so the bound is the core count, shared across every run in
	// flight — concurrently arriving gossip batches included.
	sem     chan struct{}
	metrics *PipelineMetrics
}

func newVerifyStage(metrics *PipelineMetrics) *verifyStage {
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
