package identity

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// resetKeyTable empties the key table: the next check under any key is a
// miss.
func resetKeyTable() {
	for i := range keySlots {
		keySlots[i].Store(nil)
	}
}

// storedCopies counts the slots that hold pub.
func storedCopies(pub []byte) int {
	n := 0
	for i := range keySlots {
		if e := keySlots[i].Load(); e != nil && bytes.Equal(e.pub[:], pub) {
			n++
		}
	}
	return n
}

// sameVerdict reports whether a and b are one verdict: both nil, or both
// refusals wrapping the same sentinels.
func sameVerdict(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, sentinel := range []error{ErrBadSignature, ErrBadPublicKey, ErrBadKeyLength} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// collidingKeys returns n keys whose public keys map to one set of the
// key table — more than the set holds when n > 2 — with each key's
// signature over a message of its own.
func collidingKeys(t *testing.T, n int) (pubs []PublicKey, msgs, sigs [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	bySet := map[*atomic.Pointer[expandedKey]][]*KeyPair{}
	for {
		key, err := GenerateFrom(rng)
		if err != nil {
			t.Fatal(err)
		}
		set := &keySet(key.Public())[0]
		bySet[set] = append(bySet[set], key)
		if keys := bySet[set]; len(keys) == n {
			for i, key := range keys {
				pubs = append(pubs, key.Public())
				msgs = append(msgs, fmt.Appendf(nil, "reading %d", i))
				sigs = append(sigs, key.Sign(msgs[i]))
			}
			return pubs, msgs, sigs
		}
	}
}

// TestCollidingKeysKeepVerifying files three keys under one two-slot set,
// so that each check under one evicts another, and checks each key's own
// signature (accepted) and every other key's signature under it
// (refused), alone and in one batch, round after round: a table that
// answered one key with another's points would refuse the first or accept
// the second.
func TestCollidingKeysKeepVerifying(t *testing.T) {
	resetKeyTable()
	pubs, msgs, sigs := collidingKeys(t, 3)
	for round := 0; round < 4; round++ {
		for i := range pubs {
			for j := range pubs {
				err := Verify(pubs[i], msgs[j], sigs[j])
				if (i == j) != (err == nil) {
					t.Fatalf("round %d: key %d over key %d's signature: %v", round, i, j, err)
				}
			}
		}
		if errs := VerifyBatch(pubs, msgs, sigs); errs != nil {
			t.Fatalf("round %d: a batch under the three keys refused: %v", round, errs)
		}
		swapped := [][]byte{sigs[1], sigs[2], sigs[0]}
		errs := VerifyBatch(pubs, msgs, swapped)
		for i := range pubs {
			if errs == nil || !errors.Is(errs[i], ErrBadSignature) {
				t.Fatalf("round %d: a batch of swapped signatures: %v", round, errs)
			}
		}
	}
	for i, pub := range pubs {
		if n := storedCopies(pub); n > 1 {
			t.Errorf("key %d is held in %d slots", i, n)
		}
	}
}

// TestLookupComparesEveryByte files −A's entry in both slots of A's set:
// the two encodings differ in one bit of the last byte. A check under A
// must miss it and expand A itself, and a signature under A must not pass
// under −A.
func TestLookupComparesEveryByte(t *testing.T) {
	resetKeyTable()
	pubs, msgs, sigs := buildBatch(t, rand.New(rand.NewSource(47)), make([]batchCase, 1))
	pub, msg, sig := pubs[0], msgs[0], sigs[0]
	neg := append(PublicKey(nil), pub...)
	neg[31] ^= 0x80 // the sign of x: the encoding of −A
	negKey, _, err := expandKey(neg)
	if err != nil {
		t.Fatal(err)
	}
	set := keySet(pub)
	set[0].Store(negKey)
	set[1].Store(negKey)
	if err := Verify(pub, msg, sig); err != nil {
		t.Errorf("under A beside −A's entry: %v", err)
	}
	if errs := VerifyBatch([]PublicKey{pub, pub}, [][]byte{msg, msg}, [][]byte{sig, sig}); errs != nil {
		t.Errorf("a batch under A beside −A's entry: %v", errs)
	}
	if err := Verify(neg, msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("A's signature under −A: %v", err)
	}
}

// TestRefusedKeysAreNeverStored checks every committed key of small order
// or off the curve, alone and in a batch beside a valid one, and then
// finds none of them in the table.
func TestRefusedKeysAreNeverStored(t *testing.T) {
	resetKeyTable()
	good, gMsgs, gSigs := buildBatch(t, rand.New(rand.NewSource(43)), make([]batchCase, 1))
	var refused int
	for _, c := range loadCornerCases(t) {
		if c.Want != "ErrBadPublicKey" {
			continue
		}
		refused++
		if err := Verify(c.pub(), c.msg(), c.sig()); !errors.Is(err, ErrBadPublicKey) {
			t.Errorf("%s: Verify = %v", c.Name, err)
		}
		errs := VerifyBatch([]PublicKey{c.pub(), good[0]}, [][]byte{c.msg(), gMsgs[0]}, [][]byte{c.sig(), gSigs[0]})
		if errs == nil || !errors.Is(errs[0], ErrBadPublicKey) || errs[1] != nil {
			t.Errorf("%s: VerifyBatch = %v", c.Name, errs)
		}
		if n := storedCopies(c.pub()); n != 0 {
			t.Errorf("%s: the refused key is held in %d slots", c.Name, n)
		}
	}
	if refused == 0 {
		t.Fatal("no corner-case vector has a refused key")
	}
	held := 0
	for i := range keySlots {
		if keySlots[i].Load() != nil {
			held++
		}
	}
	if held != 1 || storedCopies(good[0]) != 1 {
		t.Errorf("the table holds %d keys, want only the valid one", held)
	}
}

// TestFailingSignaturesAreNeverStored checks signatures that fail under
// valid keys the table does not hold — alone, in a batch beside a valid
// one, and as a whole batch whose equation fails — and then finds only
// the valid signatures' keys in the table, each once, however many of
// their signatures a batch carried.
func TestFailingSignaturesAreNeverStored(t *testing.T) {
	resetKeyTable()
	pubs, msgs, sigs := buildBatch(t, rand.New(rand.NewSource(53)), make([]batchCase, 4))
	other := append([]byte{0}, msgs[0]...)
	if err := Verify(pubs[0], other, sigs[0]); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("a signature over another message: %v", err)
	}
	errs := VerifyBatch([]PublicKey{pubs[1], pubs[2]}, [][]byte{other, msgs[2]}, [][]byte{sigs[1], sigs[2]})
	if errs == nil || !errors.Is(errs[0], ErrBadSignature) || errs[1] != nil {
		t.Fatalf("a batch with one failing signature: %v", errs)
	}
	errs = VerifyBatch([]PublicKey{pubs[3], pubs[3]}, [][]byte{other, other}, [][]byte{sigs[3], sigs[3]})
	if errs == nil || !errors.Is(errs[0], ErrBadSignature) || !errors.Is(errs[1], ErrBadSignature) {
		t.Fatalf("a batch of failing signatures: %v", errs)
	}
	for i, want := range []int{0, 0, 1, 0} {
		if n := storedCopies(pubs[i]); n != want {
			t.Errorf("key %d is held in %d slots, want %d", i, n, want)
		}
	}
	rep := []PublicKey{pubs[0], pubs[0], pubs[0], pubs[0]}
	if errs := VerifyBatch(rep, [][]byte{msgs[0], msgs[0], msgs[0], msgs[0]}, [][]byte{sigs[0], sigs[0], sigs[0], sigs[0]}); errs != nil {
		t.Fatalf("a valid batch under one fresh key: %v", errs)
	}
	if n := storedCopies(pubs[0]); n != 1 {
		t.Errorf("a batch of four signatures under one fresh key left it in %d slots, want 1", n)
	}
}

// TestConcurrentVerifiersOverCollidingKeys runs verifiers on several
// goroutines over keys that crowd one set, so that lookups, misses and
// publications race on the same two slots: every verdict stays right.
// `go test -race` runs it under the race detector.
func TestConcurrentVerifiersOverCollidingKeys(t *testing.T) {
	const workers, rounds = 4, 25
	resetKeyTable()
	pubs, msgs, sigs := collidingKeys(t, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (w + round) % len(pubs)
				if err := Verify(pubs[i], msgs[i], sigs[i]); err != nil {
					t.Errorf("worker %d: key %d's own signature refused: %v", w, i, err)
					return
				}
				j := (i + 1) % len(pubs)
				if err := Verify(pubs[i], msgs[j], sigs[j]); !errors.Is(err, ErrBadSignature) {
					t.Errorf("worker %d: key %d accepted key %d's signature: %v", w, i, j, err)
					return
				}
				if errs := VerifyBatch(pubs, msgs, sigs); errs != nil {
					t.Errorf("worker %d: a valid batch refused: %v", w, errs)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkVerifySingleColdKey is BenchmarkVerifySingle under a key the
// table has never held: each op first drops its key's set, so the check
// pays the decode, the small-order test and the 128 doublings of
// expanding the key, and publishes it.
func BenchmarkVerifySingleColdKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pubs, msgs, sigs := buildBatch(b, rng, make([]batchCase, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pubs)
		set := keySet(pubs[j])
		set[0].Store(nil)
		set[1].Store(nil)
		if err := Verify(pubs[j], msgs[j], sigs[j]); err != nil {
			b.Fatal(err)
		}
	}
}
