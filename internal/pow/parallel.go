package pow

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// cancelCheckInterval is how many attempts a search goroutine runs
// between context checks; small enough that cancellation is prompt,
// large enough that ctx.Err() stays off the hot path.
const cancelCheckInterval = 1024

// SearchParallel fans the nonce space across Parallelism goroutines (0
// selects GOMAXPROCS) in disjoint strides: worker i scans nonces i,
// i+W, i+2W, … for stride width W. The first hit does not win outright —
// every sibling keeps scanning until its next candidate nonce exceeds
// the best hit found so far, so the returned nonce is always the
// globally minimal valid nonce, identical to what the serial Search
// returns. That makes the result deterministic regardless of goroutine
// scheduling.
//
// CostFactor semantics are preserved (each worker burns the same extra
// rounds per attempt) and MaxAttempts bounds the total attempts summed
// across all workers: when the shared budget runs out before a hit, the
// search fails with ErrExhausted just like the serial path.
func (w *Worker) SearchParallel(ctx context.Context, trunk, branch hashutil.Hash, difficulty int) (Result, error) {
	if difficulty < MinDifficulty || difficulty > MaxDifficulty {
		return Result{}, fmt.Errorf("%w: %d not in [%d, %d]",
			ErrBadDifficulty, difficulty, MinDifficulty, MaxDifficulty)
	}
	workers := w.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return w.Search(ctx, trunk, branch, difficulty)
	}
	start := time.Now()

	var (
		best     atomic.Uint64 // lowest valid nonce found so far
		attempts atomic.Uint64 // shared MaxAttempts budget
		wg       sync.WaitGroup
	)
	best.Store(math.MaxUint64)
	results := make([]Result, workers)
	found := make([]bool, workers)

	extra := w.CostFactor - 1
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			// Each lane hashes the fixed prefix hash(TX1) || hash(TX2)
			// once, into state of its own.
			eqn := newEqn6(trunk, branch)
			defer eqn.put()
			var local uint64
			for nonce := uint64(lane); ; nonce += uint64(workers) {
				// A candidate above the best hit cannot improve the
				// result: this lane is done.
				if nonce >= best.Load() {
					return
				}
				if local%cancelCheckInterval == 0 && ctx.Err() != nil {
					return
				}
				if w.MaxAttempts != 0 && attempts.Add(1) > w.MaxAttempts {
					return
				}
				local++
				digest := eqn.digest(nonce)
				// Device emulation: burn extra rounds per attempt,
				// exactly as the serial path does.
				burn := digest
				for r := 0; r < extra; r++ {
					burn = hashutil.Sum(burn[:])
				}
				_ = burn
				if digest.MeetsDifficulty(difficulty) {
					results[lane] = Result{Nonce: nonce, Digest: digest}
					found[lane] = true
					// Lower best monotonically; a concurrent smaller
					// hit must not be overwritten.
					for {
						cur := best.Load()
						if nonce >= cur || best.CompareAndSwap(cur, nonce) {
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil && best.Load() == math.MaxUint64 {
		return Result{}, err
	}
	winner := -1
	for i, ok := range found {
		if ok && (winner < 0 || results[i].Nonce < results[winner].Nonce) {
			winner = i
		}
	}
	if winner < 0 {
		return Result{}, fmt.Errorf("%w after %d attempts", ErrExhausted, attempts.Load())
	}
	res := results[winner]
	res.Attempts = attempts.Load()
	if w.MaxAttempts != 0 && res.Attempts > w.MaxAttempts {
		res.Attempts = w.MaxAttempts
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// AttachParallel runs SearchParallel for t's parents and stores the
// winning nonce on t — the multi-core analogue of Attach.
func (w *Worker) AttachParallel(ctx context.Context, t *txn.Transaction, difficulty int) (Result, error) {
	res, err := w.SearchParallel(ctx, t.Trunk, t.Branch, difficulty)
	if err != nil {
		return Result{}, err
	}
	t.Nonce = res.Nonce
	return res, nil
}
