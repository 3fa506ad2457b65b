package pow

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

func parents(tag string) (hashutil.Hash, hashutil.Hash) {
	return hashutil.Sum([]byte("trunk-" + tag)), hashutil.Sum([]byte("branch-" + tag))
}

func TestSearchFindsValidNonce(t *testing.T) {
	w := &Worker{}
	trunk, branch := parents("basic")
	for _, d := range []int{1, 4, 8, 12} {
		t.Run(fmt.Sprintf("D=%d", d), func(t *testing.T) {
			res, err := w.Search(context.Background(), trunk, branch, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(trunk, branch, res.Nonce, d); err != nil {
				t.Errorf("found nonce does not verify: %v", err)
			}
			if res.Attempts == 0 {
				t.Error("zero attempts reported")
			}
			if res.Digest != txn.PowDigest(trunk, branch, res.Nonce) {
				t.Error("result digest is not the canonical Eqn-6 output")
			}
		})
	}
}

func TestSearchDifficultyBounds(t *testing.T) {
	w := &Worker{}
	trunk, branch := parents("bounds")
	for _, d := range []int{0, -1, MaxDifficulty + 1} {
		if _, err := w.Search(context.Background(), trunk, branch, d); !errors.Is(err, ErrBadDifficulty) {
			t.Errorf("difficulty %d: err = %v, want ErrBadDifficulty", d, err)
		}
	}
}

func TestSearchContextCancel(t *testing.T) {
	w := &Worker{}
	trunk, branch := parents("cancel")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Search(ctx, trunk, branch, 40); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestCostFactorPreservesCanonicalDigest(t *testing.T) {
	// Device emulation burns cycles but must not change which nonces
	// are valid — the emulated worker's results must verify with the
	// plain rule.
	trunk, branch := parents("cost")
	slow := &Worker{CostFactor: 16}
	res, err := slow.Search(context.Background(), trunk, branch, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(trunk, branch, res.Nonce, 6); err != nil {
		t.Errorf("emulated worker's nonce invalid under plain verify: %v", err)
	}
}

func TestCostFactorSlowsSearch(t *testing.T) {
	trunk, branch := parents("slowdown")
	fast := &Worker{}
	slow := &Worker{CostFactor: 64}
	const d = 10
	var fastTotal, slowTotal time.Duration
	for i := 0; i < 3; i++ {
		fr, err := fast.Search(context.Background(), trunk, branch, d)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := slow.Search(context.Background(), trunk, branch, d)
		if err != nil {
			t.Fatal(err)
		}
		fastTotal += fr.Elapsed
		slowTotal += sr.Elapsed
	}
	if slowTotal < fastTotal*4 {
		t.Errorf("cost factor 64 only slowed search %v → %v", fastTotal, slowTotal)
	}
}

func TestAttachSetsNonce(t *testing.T) {
	w := &Worker{}
	tx := &txn.Transaction{Trunk: hashutil.Sum([]byte("a")), Branch: hashutil.Sum([]byte("b"))}
	res, err := w.Attach(context.Background(), tx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Nonce != res.Nonce {
		t.Error("Attach did not store the nonce")
	}
	if err := tx.VerifyPoW(8); err != nil {
		t.Errorf("attached tx pow invalid: %v", err)
	}
}

func TestVerifyRejectsWrongNonce(t *testing.T) {
	trunk, branch := parents("verify")
	w := &Worker{}
	res, err := w.Search(context.Background(), trunk, branch, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(trunk, branch, res.Nonce+1, 12); err == nil {
		// The next nonce could coincidentally also satisfy d=12; check
		// the digest to distinguish a real failure from luck.
		if !txn.PowDigest(trunk, branch, res.Nonce+1).MeetsDifficulty(12) {
			t.Error("wrong nonce verified")
		}
	}
	if err := Verify(trunk, branch, res.Nonce, 0); !errors.Is(err, ErrBadDifficulty) {
		t.Errorf("difficulty 0: err = %v", err)
	}
}

func TestVerifyBindsParents(t *testing.T) {
	trunk, branch := parents("bind")
	w := &Worker{}
	res, err := w.Search(context.Background(), trunk, branch, 12)
	if err != nil {
		t.Fatal(err)
	}
	other := hashutil.Sum([]byte("other"))
	if err := Verify(other, branch, res.Nonce, 12); err == nil {
		if !txn.PowDigest(other, branch, res.Nonce).MeetsDifficulty(12) {
			t.Error("nonce verified for the wrong trunk")
		}
	}
}

func TestExpectedAttemptsDoubles(t *testing.T) {
	for d := MinDifficulty; d < 30; d++ {
		if ExpectedAttempts(d+1) != 2*ExpectedAttempts(d) {
			t.Fatalf("expected attempts not doubling at %d", d)
		}
	}
}

// TestAttemptsScaleWithDifficulty is the statistical heart of Fig 7:
// mean attempts ≈ 2^d. With a handful of trials we only assert a loose
// monotonic sandwich to keep the test deterministic enough.
func TestAttemptsScaleWithDifficulty(t *testing.T) {
	w := &Worker{}
	mean := func(d int) float64 {
		const trials = 12
		var total uint64
		for i := 0; i < trials; i++ {
			trunk, branch := parents(fmt.Sprintf("scale-%d-%d", d, i))
			res, err := w.Search(context.Background(), trunk, branch, d)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Attempts
		}
		return float64(total) / trials
	}
	m6, m10 := mean(6), mean(10)
	// Expected ratio 16; accept anything comfortably above 3 to avoid
	// flaky failures from the geometric distribution's variance.
	if m10 < 3*m6 {
		t.Errorf("attempts did not scale: mean(6)=%.0f mean(10)=%.0f", m6, m10)
	}
}

func TestClampDifficulty(t *testing.T) {
	if ClampDifficulty(-5) != MinDifficulty {
		t.Error("low clamp failed")
	}
	if ClampDifficulty(1000) != MaxDifficulty {
		t.Error("high clamp failed")
	}
	if ClampDifficulty(10) != 10 {
		t.Error("in-range value clamped")
	}
}
