package identity

import (
	"bytes"
	"crypto/sha512"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/b-iot/biot/internal/identity/edwards25519"
)

// batchFixture builds one (pubs, messages, sigs) triple set from a
// seeded RNG, mutating a seeded subset into corrupted / truncated /
// short-key entries, and returns the expected per-entry validity.
type batchCase int

const (
	caseValid batchCase = iota
	caseCorruptSig
	caseTruncatedSig
	caseCorruptMessage
	caseShortKey
	caseWrongSigner
	caseTorsionR // valid: signed with R + T, T a point of order 8
	numBatchCases
)

// torsion8 is a point of order 8, from libsodium's small-order blocklist;
// its odd multiples are the curve's four points of order 8.
var torsion8 = func() *edwards25519.Point {
	raw, _ := hex.DecodeString("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a")
	p, err := new(edwards25519.Point).SetBytes(raw)
	if err != nil {
		panic(err)
	}
	return p
}()

// secretScalar is the a of key's A = [a]B, derived as RFC 8032 derives it.
func secretScalar(key *KeyPair) *edwards25519.Scalar {
	h := sha512.Sum512(key.Seed())
	a, err := new(edwards25519.Scalar).SetBytesWithClamping(h[:32])
	if err != nil {
		panic(err)
	}
	return a
}

// signWith returns rBytes ‖ s over message under the key bytes pub, for a
// pub that decodes to [a]B plus any small-order point and an rBytes that
// decodes to [r]B plus any small-order point: s = r + k·a with k over the
// bytes as sent. The rule accepts it whatever the two small-order parts
// are; a check with no cofactor refuses it unless both vanish.
func signWith(a, r *edwards25519.Scalar, pub, rBytes, message []byte) []byte {
	h := sha512.New()
	h.Write(rBytes)
	h.Write(pub)
	h.Write(message)
	k, _ := new(edwards25519.Scalar).SetUniformBytes(h.Sum(nil))
	s := new(edwards25519.Scalar).MultiplyAdd(k, a, r)
	return append(append([]byte(nil), rBytes...), s.Bytes()...)
}

// torsionCommitment is [r]B + torsion for an r drawn from rng, and r.
func torsionCommitment(rng *rand.Rand, torsion *edwards25519.Point) (*edwards25519.Scalar, []byte) {
	var wide [64]byte
	rng.Read(wide[:])
	r, _ := new(edwards25519.Scalar).SetUniformBytes(wide[:])
	R := new(edwards25519.Point).ScalarBaseMult(r)
	return r, R.Add(R, torsion).Bytes()
}

func buildBatch(t testing.TB, rng *rand.Rand, cases []batchCase) (pubs []PublicKey, msgs, sigs [][]byte) {
	t.Helper()
	for i, c := range cases {
		key, err := GenerateFrom(rng)
		if err != nil {
			t.Fatalf("generate key %d: %v", i, err)
		}
		// Mixed message sizes: empty, tiny, and up to a few KiB.
		msg := make([]byte, rng.Intn(4096))
		rng.Read(msg)
		sig := key.Sign(msg)
		pub := key.Public()
		switch c {
		case caseCorruptSig:
			sig[rng.Intn(len(sig))] ^= 1 << uint(rng.Intn(8))
		case caseTruncatedSig:
			sig = sig[:rng.Intn(len(sig))]
		case caseCorruptMessage:
			if len(msg) == 0 {
				msg = []byte{0x7F}
			} else {
				msg[rng.Intn(len(msg))] ^= 0x40
			}
		case caseShortKey:
			pub = pub[:rng.Intn(len(pub))]
		case caseWrongSigner:
			other, err := GenerateFrom(rng)
			if err != nil {
				t.Fatalf("generate foreign key: %v", err)
			}
			sig = other.Sign(msg)
		case caseTorsionR:
			torsion := new(edwards25519.Point).Set(torsion8)
			for m := 2*rng.Intn(4) + 1; m > 1; m-- { // an odd multiple: order 8
				torsion.Add(torsion, torsion8)
			}
			r, rBytes := torsionCommitment(rng, torsion)
			sig = signWith(secretScalar(key), r, pub, rBytes, msg)
		}
		pubs = append(pubs, pub)
		msgs = append(msgs, msg)
		sigs = append(sigs, sig)
	}
	return pubs, msgs, sigs
}

// TestVerifyBatchAgreesWithVerify is the batch/single agreement
// property: over seeded interleavings of valid, corrupted, truncated
// and mis-keyed entries at mixed message sizes, VerifyBatch's
// per-entry verdict must match identity.Verify exactly.
func TestVerifyBatchAgreesWithVerify(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xB107 + seed))
			n := 1 + rng.Intn(48)
			cases := make([]batchCase, n)
			for i := range cases {
				// Bias toward valid entries so most seeds exercise the
				// batch-accept fast path with occasional offenders.
				if rng.Intn(3) == 0 {
					cases[i] = batchCase(rng.Intn(int(numBatchCases)))
				}
			}
			pubs, msgs, sigs := buildBatch(t, rng, cases)
			checkAgreement(t, pubs, msgs, sigs)
		})
	}
}

// TestVerifyBatchAllInvalid pins the all-offenders edge: every entry
// must be individually attributed, none silently accepted.
func TestVerifyBatchAllInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := make([]batchCase, 16)
	for i := range cases {
		cases[i] = caseCorruptSig + batchCase(rng.Intn(int(caseTorsionR-caseCorruptSig)))
	}
	pubs, msgs, sigs := buildBatch(t, rng, cases)
	errs := VerifyBatch(pubs, msgs, sigs)
	if errs == nil {
		t.Fatal("all-invalid batch verified clean")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("entry %d (case %d): invalid entry accepted", i, cases[i])
		}
	}
	checkAgreement(t, pubs, msgs, sigs)
}

// TestVerifyBatchSingleInvalidIn64 pins offender attribution in a
// large otherwise-valid batch: exactly one entry rejected, the right
// one.
func TestVerifyBatchSingleInvalidIn64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := make([]batchCase, 64)
	bad := rng.Intn(64)
	cases[bad] = caseCorruptSig
	pubs, msgs, sigs := buildBatch(t, rng, cases)
	errs := VerifyBatch(pubs, msgs, sigs)
	if errs == nil {
		t.Fatal("batch with one corrupted signature verified clean")
	}
	for i, err := range errs {
		if i == bad && err == nil {
			t.Errorf("offender %d accepted", bad)
		}
		if i != bad && err != nil {
			t.Errorf("valid entry %d rejected: %v", i, err)
		}
	}
}

func TestVerifyBatchAllValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 64} {
		pubs, msgs, sigs := buildBatch(t, rng, make([]batchCase, n))
		if errs := VerifyBatch(pubs, msgs, sigs); errs != nil {
			t.Fatalf("n=%d: valid batch rejected: %v", n, errs)
		}
	}
}

func TestVerifyBatchEmptyAndMismatched(t *testing.T) {
	if errs := VerifyBatch(nil, nil, nil); errs != nil {
		t.Fatalf("empty batch: %v", errs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched slice lengths")
		}
	}()
	VerifyBatch(make([]PublicKey, 2), make([][]byte, 1), make([][]byte, 2))
}

// TestVerifyBatchShortKeyTyped pins the satellite contract: malformed
// keys surface ErrBadKeyLength, distinguishable from ErrBadSignature.
func TestVerifyBatchShortKeyTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := make([]batchCase, 8)
	cases[3] = caseShortKey
	cases[5] = caseCorruptSig
	pubs, msgs, sigs := buildBatch(t, rng, cases)
	errs := VerifyBatch(pubs, msgs, sigs)
	if errs == nil {
		t.Fatal("batch with short key verified clean")
	}
	if !errors.Is(errs[3], ErrBadKeyLength) {
		t.Errorf("short key error = %v, want ErrBadKeyLength", errs[3])
	}
	if errors.Is(errs[5], ErrBadKeyLength) || errs[5] == nil {
		t.Errorf("corrupt signature error = %v, want a non-key error", errs[5])
	}
	if !errors.Is(Verify(pubs[3], msgs[3], sigs[3]), ErrBadKeyLength) {
		t.Error("identity.Verify on a short key must return ErrBadKeyLength")
	}
}

// TestTorsionedCommitmentValidOnEveryPath pins the one rule on the case
// that split the two paths when single signatures were checked with no
// cofactor: an ordinary key signing with R + T, T of order 8. Verify
// accepts every one, and so does every one of 200 batches of them —
// where a check without the cofactor accepts about one batch in eight.
func TestTorsionedCommitmentValidOnEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7045))
	for b := 0; b < 200; b++ {
		cases := make([]batchCase, 2+rng.Intn(7))
		for i := range cases {
			cases[i] = caseTorsionR
		}
		pubs, msgs, sigs := buildBatch(t, rng, cases)
		for i := range pubs {
			if err := Verify(pubs[i], msgs[i], sigs[i]); err != nil {
				t.Fatalf("batch %d, entry %d: Verify refused an R + T signature: %v", b, i, err)
			}
		}
		if errs := VerifyBatch(pubs, msgs, sigs); errs != nil {
			t.Fatalf("batch %d: VerifyBatch refused R + T signatures: %v", b, errs)
		}
	}
}

// checkAgreement asserts VerifyBatch and Verify agree entry-by-entry, down
// to the sentinel of each refusal.
func checkAgreement(t *testing.T, pubs []PublicKey, msgs, sigs [][]byte) {
	t.Helper()
	errs := VerifyBatch(pubs, msgs, sigs)
	for i := range pubs {
		single := Verify(pubs[i], msgs[i], sigs[i])
		var batch error
		if errs != nil {
			batch = errs[i]
		}
		if (single == nil) != (batch == nil) {
			t.Errorf("entry %d: batch verdict %v, single verdict %v", i, batch, single)
		}
		for _, sentinel := range []error{ErrBadSignature, ErrBadPublicKey, ErrBadKeyLength} {
			if errors.Is(single, sentinel) != errors.Is(batch, sentinel) {
				t.Errorf("entry %d: batch error %v, single error %v: not the same sentinel", i, batch, single)
			}
		}
	}
}

func BenchmarkVerifySingle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pubs, msgs, sigs := buildBatch(b, rng, make([]batchCase, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pubs)
		if err := Verify(pubs[j], msgs[j], sigs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBatch(b *testing.B) {
	for _, n := range []int{2, 8, 16, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pubs, msgs, sigs := buildBatch(b, rng, make([]batchCase, n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := VerifyBatch(pubs, msgs, sigs); errs != nil {
					b.Fatal("batch rejected")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
		})
	}
}

// Guard: a KeyPair's Sign output stays bit-stable under the batch
// path's buffer reuse (regression guard for aliasing bugs in the
// decode loop).
func TestVerifyBatchDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pubs, msgs, sigs := buildBatch(t, rng, make([]batchCase, 4))
	pubCopy := append([]byte(nil), pubs[0]...)
	sigCopy := append([]byte(nil), sigs[0]...)
	msgCopy := append([]byte(nil), msgs[0]...)
	VerifyBatch(pubs, msgs, sigs)
	if !bytes.Equal(pubCopy, pubs[0]) || !bytes.Equal(sigCopy, sigs[0]) || !bytes.Equal(msgCopy, msgs[0]) {
		t.Fatal("VerifyBatch mutated caller buffers")
	}
}

// TestVerifyBatchStaleScratchNeverLeaks runs a full batch and then a
// batch of two through the same goroutine — so the same pooled scratch —
// with one bad signature at every position of each in turn, and the
// clean ones between. Whatever the longer batch left in the slots the
// shorter one does not fill, every verdict must be Verify's.
func TestVerifyBatchStaleScratchNeverLeaks(t *testing.T) {
	const full = 64 // the node's chunk
	rng := rand.New(rand.NewSource(23))
	corrupt := func(sigs [][]byte, at int) [][]byte {
		out := append([][]byte(nil), sigs...)
		out[at] = append([]byte(nil), sigs[at]...)
		out[at][rng.Intn(len(out[at]))] ^= 1 << uint(rng.Intn(8))
		return out
	}
	bigPubs, bigMsgs, bigSigs := buildBatch(t, rng, make([]batchCase, full))
	pubs, msgs, sigs := buildBatch(t, rng, make([]batchCase, 2))
	for bad := 0; bad <= full; bad++ { // bad == full: a clean full batch
		big := bigSigs
		if bad < full {
			big = corrupt(bigSigs, bad)
		}
		checkAgreement(t, bigPubs, bigMsgs, big)
		for small := 0; small <= 2; small++ { // small == 2: a clean pair
			pair := sigs
			if small < 2 {
				pair = corrupt(sigs, small)
			}
			checkAgreement(t, pubs, msgs, pair)
			errs := VerifyBatch(pubs, msgs, pair)
			for i := range pair {
				if wantBad := i == small; wantBad != (errs != nil && errs[i] != nil) {
					t.Fatalf("after a full batch with entry %d bad, pair entry %d (bad entry %d): verdict %v",
						bad, i, small, errs)
				}
			}
		}
	}
}

// FuzzVerifyBatchAgreesWithVerify is the same property under mutation:
// layout picks each entry's kind of damage, raw — when long enough —
// replaces the first entry's key, signature and message bytes outright
// (key, then signature, then message), and the batch is followed through
// the same scratch by its own first two entries. The committed
// corner-case vectors are its seeds, so plain go test runs them too.
func FuzzVerifyBatchAgreesWithVerify(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0}, []byte(nil))
	f.Add(int64(2), []byte{0, 1, 2, 3, 4, 5, 0, 0}, []byte(nil))
	f.Add(int64(3), bytes.Repeat([]byte{0}, 67), []byte(nil))
	f.Add(int64(4), []byte{0, 0, 0}, append(bytes.Repeat([]byte{0xFF}, 31), 0x7F)) // a key that is no field element's canonical form
	f.Add(int64(5), []byte{0, 0}, append([]byte{3}, make([]byte, 95)...))          // arbitrary key bytes, an all-zero signature
	for i, v := range loadCornerCases(f) {
		f.Add(int64(6+i), []byte{0, 0}, append(append(append([]byte(nil), v.pub()...), v.sig()...), v.msg()...))
	}
	f.Fuzz(func(t *testing.T, seed int64, layout, raw []byte) {
		if len(layout) > 129 {
			layout = layout[:129]
		}
		cases := make([]batchCase, len(layout))
		for i, b := range layout {
			cases[i] = batchCase(b % byte(numBatchCases))
		}
		pubs, msgs, sigs := buildBatch(t, rand.New(rand.NewSource(seed)), cases)
		if len(pubs) > 0 && len(raw) >= 32 {
			pubs[0] = append(PublicKey(nil), raw[:32]...)
			if len(raw) >= 96 {
				sigs[0] = append([]byte(nil), raw[32:96]...)
				msgs[0] = append([]byte(nil), raw[96:]...)
			}
		}
		checkAgreement(t, pubs, msgs, sigs)
		if len(pubs) > 2 {
			checkAgreement(t, pubs[:2], msgs[:2], sigs[:2])
		}
	})
}
