package pow

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/b-iot/biot/internal/hashutil"
)

// referenceSearch is the naive Eqn-6 loop: the whole 72-byte message
// hashed afresh for every nonce, from zero up.
func referenceSearch(trunk, branch hashutil.Hash, difficulty int) Result {
	var msg [hashutil.Size*2 + 8]byte
	inner1, inner2 := hashutil.Sum(trunk[:]), hashutil.Sum(branch[:])
	copy(msg[:hashutil.Size], inner1[:])
	copy(msg[hashutil.Size:], inner2[:])
	for nonce := uint64(0); ; nonce++ {
		binary.BigEndian.PutUint64(msg[hashutil.Size*2:], nonce)
		if digest := hashutil.Sum(msg[:]); digest.MeetsDifficulty(difficulty) {
			return Result{Nonce: nonce, Digest: digest, Attempts: nonce + 1}
		}
	}
}

// TestSearchMatchesTheNaiveLoop: across random parents, difficulties 1–12
// and CostFactor 1 and 3, Search finds the nonce and digest the naive loop
// finds, in as many attempts, and the digest is what Verify checks.
func TestSearchMatchesTheNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 24; round++ {
		var trunk, branch hashutil.Hash
		rng.Read(trunk[:])
		rng.Read(branch[:])
		difficulty := 1 + round%12
		want := referenceSearch(trunk, branch, difficulty)
		for _, cost := range []int{1, 3} {
			name := fmt.Sprintf("round %d, difficulty %d, cost %d", round, difficulty, cost)
			w := Worker{CostFactor: cost}
			got, err := w.Search(context.Background(), trunk, branch, difficulty)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Nonce != want.Nonce || got.Digest != want.Digest {
				t.Fatalf("%s: nonce %d digest %s, the naive loop %d %s", name, got.Nonce, got.Digest.Short(), want.Nonce, want.Digest.Short())
			}
			if got.Attempts != want.Attempts {
				t.Fatalf("%s: %d attempts, the naive loop %d", name, got.Attempts, want.Attempts)
			}
			if err := Verify(trunk, branch, got.Nonce, difficulty); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// BenchmarkEqn6Attempt is one nonce attempt: the digest restored from the
// absorbed prefix, against the whole 72-byte message hashed afresh (the
// parent hashes computed once, as Search did before it absorbed them).
func BenchmarkEqn6Attempt(b *testing.B) {
	var trunk, branch hashutil.Hash
	b.Run("prefix-once", func(b *testing.B) {
		eqn := newEqn6(trunk, branch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = eqn.digest(uint64(i))
		}
	})
	b.Run("whole-message", func(b *testing.B) {
		var msg [hashutil.Size*2 + 8]byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(msg[hashutil.Size*2:], uint64(i))
			_ = hashutil.Sum(msg[:])
		}
	})
}
