// Package pow implements the proof-of-work algorithm of the paper's
// Eqn 6: search for a nonce such that
//
//	output = hash{hash(TX1) || hash(TX2) || nonce}
//
// has at least `difficulty` leading zero bits. "We can control the
// difficulty of PoW through adjusting the demand of minimum length of
// prefix zero of the target hash string" (§IV-B).
//
// Difficulty is measured in bits, so expected work doubles per unit —
// the exponential running-time curve of the paper's Fig 7.
//
// A CostFactor knob performs additional hash rounds per nonce attempt to
// emulate slow hardware (the paper's Raspberry Pi 3B) on fast machines;
// it scales absolute times without changing the curve's shape.
package pow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// Difficulty bounds. MinDifficulty mirrors the paper ("the minimum
// difficulty of PoW is 1"); MaxDifficulty caps the credit mechanism's
// punishment so verification stays well-defined ("the maximum should not
// exceed the length of hash").
const (
	MinDifficulty = 1
	MaxDifficulty = 48
)

// Worker searches PoW nonces. The zero value is a valid worker with
// CostFactor 1 (no device emulation).
type Worker struct {
	// CostFactor emulates slower hardware: each nonce attempt performs
	// CostFactor-1 extra SHA-256 rounds. 0 and 1 both mean "no
	// emulation".
	CostFactor int
}

// Result describes a successful PoW search.
type Result struct {
	Nonce    uint64
	Digest   hashutil.Hash
	Attempts uint64
	Elapsed  time.Duration
}

// ErrBadDifficulty reports a difficulty outside [MinDifficulty, MaxDifficulty].
var ErrBadDifficulty = errors.New("difficulty out of range")

// ClampDifficulty forces d into [MinDifficulty, MaxDifficulty].
func ClampDifficulty(d int) int {
	if d < MinDifficulty {
		return MinDifficulty
	}
	if d > MaxDifficulty {
		return MaxDifficulty
	}
	return d
}

// Search finds a nonce for the given parents meeting difficulty. It
// honours ctx cancellation (checked every 1024 attempts) so a light node
// can abandon work when resubmitting against fresh tips.
func (w *Worker) Search(ctx context.Context, trunk, branch hashutil.Hash, difficulty int) (Result, error) {
	if difficulty < MinDifficulty || difficulty > MaxDifficulty {
		return Result{}, fmt.Errorf("%w: %d not in [%d, %d]",
			ErrBadDifficulty, difficulty, MinDifficulty, MaxDifficulty)
	}
	start := time.Now()

	// The fixed prefix hash(TX1) || hash(TX2) is hashed once.
	eqn := newEqn6(trunk, branch)
	defer eqn.put()

	extra := w.CostFactor - 1
	for nonce := uint64(0); ; nonce++ {
		if nonce%1024 == 0 && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		digest := eqn.digest(nonce)
		// Device emulation: burn extra rounds per attempt. The burn
		// must not influence which nonces are valid — the protocol
		// judges the canonical Eqn-6 digest only.
		burn := digest
		for i := 0; i < extra; i++ {
			burn = hashutil.Sum(burn[:])
		}
		_ = burn
		if digest.MeetsDifficulty(difficulty) {
			return Result{
				Nonce:    nonce,
				Digest:   digest,
				Attempts: nonce + 1,
				Elapsed:  time.Since(start),
			}, nil
		}
	}
}

// Attach signs nothing and mutates nothing except the nonce: it runs
// Search for t's parents and stores the winning nonce on t.
func (w *Worker) Attach(ctx context.Context, t *txn.Transaction, difficulty int) (Result, error) {
	res, err := w.Search(ctx, t.Trunk, t.Branch, difficulty)
	if err != nil {
		return Result{}, err
	}
	t.Nonce = res.Nonce
	return res, nil
}

// Verify checks that nonce satisfies difficulty for the given parents.
// Verification is a single hash regardless of difficulty — the
// asymmetry that makes PoW usable as an admission filter.
func Verify(trunk, branch hashutil.Hash, nonce uint64, difficulty int) error {
	if difficulty < MinDifficulty || difficulty > MaxDifficulty {
		return fmt.Errorf("%w: %d", ErrBadDifficulty, difficulty)
	}
	digest := txn.PowDigest(trunk, branch, nonce)
	if !digest.MeetsDifficulty(difficulty) {
		return fmt.Errorf("%w: digest has %d leading zero bits, need %d",
			txn.ErrInsufficientWork, digest.LeadingZeroBits(), difficulty)
	}
	return nil
}

// ExpectedAttempts returns the mean number of nonce attempts required at
// the given difficulty: 2^difficulty.
func ExpectedAttempts(difficulty int) float64 {
	return float64(uint64(1) << uint(ClampDifficulty(difficulty)))
}
