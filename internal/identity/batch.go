package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"fmt"
	"hash"
	"sync"

	"github.com/b-iot/biot/internal/identity/edwards25519"
)

// MinBatchSize is the smallest batch VerifyBatch verifies with the
// shared-ladder equation; below it the per-signature path is at least
// as fast (the fixed cost of the random coefficients and the Straus
// setup outweighs the shared doublings).
const MinBatchSize = 2

// batchCoefficientBytes sizes the random coefficient drawn per
// signature: 128 bits bounds a forged batch's acceptance probability at
// ~2^-128, matching the curve's security level; wider buys nothing.
const batchCoefficientBytes = 16

// batchScratch is everything one batch equation works in besides the
// multi-scalar kernel's own tables: the decompressed points, the scalars,
// the coefficient bytes and the SHA-512 state, 3.6 KB of garbage a
// signature when each call made them afresh. Like the kernel's, it grows
// to the largest batch it has served (callers chunk: the node's
// batchVerifyChunk is 64, ≈ 50 KB here). points and scalars hold the
// addresses of the values beside them, so that a prefix of each is the
// kernel's argument as it stands.
//
// A scratch is reused without clearing. Triples are packed into slots in
// order; slot i is written whole (A, R, s, k, its coefficient, then both
// scalars) before anything reads it, and nothing reads past the last
// slot this call filled — a triple refused half-way leaves its slot to
// the next one.
type batchScratch struct {
	pointVals  []edwards25519.Point // A, R of slot i at 2i, 2i+1
	scalarVals []edwards25519.Scalar
	points     []*edwards25519.Point
	scalars    []*edwards25519.Scalar
	s, k       []edwards25519.Scalar
	live       []int     // batch slot -> triple index
	z          []byte    // batchCoefficientBytes a slot
	hash       hash.Hash // SHA-512
	digest     [sha512.Size]byte
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{hash: sha512.New()} }}

// grow makes room for n slots.
func (sc *batchScratch) grow(n int) {
	if len(sc.live) >= n {
		return
	}
	sc.pointVals = make([]edwards25519.Point, 2*n)
	sc.scalarVals = make([]edwards25519.Scalar, 2*n)
	sc.points = make([]*edwards25519.Point, 2*n)
	sc.scalars = make([]*edwards25519.Scalar, 2*n)
	for i := range sc.points {
		sc.points[i], sc.scalars[i] = &sc.pointVals[i], &sc.scalarVals[i]
	}
	sc.s = make([]edwards25519.Scalar, n)
	sc.k = make([]edwards25519.Scalar, n)
	sc.live = make([]int, n)
	sc.z = make([]byte, batchCoefficientBytes*n)
}

// VerifyBatch checks n (public key, message, signature) triples
// together. It returns nil when every signature verifies; otherwise it
// returns a slice of length n whose entry i reports triple i's failure
// (nil for the triples that are individually valid), so one bad
// signature in a gossip batch still pinpoints the offender.
//
// The fast path verifies the whole batch with a single multi-scalar
// equation: sample random 128-bit z_i and check
//
//	[Σ z_i s_i]B − Σ [z_i k_i]A_i − Σ [z_i]R_i == identity,
//
// which holds for any set of valid signatures and fails, except with
// probability ~2^-128 per forged term, when any signature is invalid.
// One pass shares the 256-step doubling ladder across every term, so a
// batch of n costs roughly n·(two NAF tables + sparse additions)
// instead of n independent double-scalar multiplications. When the
// batch equation fails, each signature is re-checked with Verify — the
// fallback is what attributes the failure, and it also guarantees the
// accept/reject decision for invalid batches is byte-for-byte the
// per-signature one.
//
// Triples whose key or signature is structurally unusable (wrong key
// length, wrong signature length, non-canonical s, undecodable R or A)
// are rejected up front with a typed error — ErrBadKeyLength for
// malformed keys — and excluded from the equation; the remaining
// triples are still batch-verified.
//
// An all-valid batch allocates nothing: the equation works out of a
// pooled scratch.
func VerifyBatch(pubs []PublicKey, messages, sigs [][]byte) []error {
	n := len(pubs)
	if len(messages) != n || len(sigs) != n {
		panic(fmt.Sprintf("identity: VerifyBatch length mismatch: %d keys, %d messages, %d signatures",
			n, len(messages), len(sigs)))
	}
	if n < MinBatchSize {
		return verifyEach(pubs, messages, sigs)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.grow(n)

	// errs is made when the first triple fails: a clean batch returns nil.
	var errs []error
	reject := func(i int, err error) {
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
	}

	// Decode every triple into curve form, rejecting the structurally
	// unusable ones up front. Triple i participates in the batch
	// equation iff it is given a slot.
	slots := 0
	for i := 0; i < n; i++ {
		if len(pubs[i]) != ed25519.PublicKeySize {
			reject(i, fmt.Errorf("%w: length %d", ErrBadKeyLength, len(pubs[i])))
			continue
		}
		if len(sigs[i]) != ed25519.SignatureSize {
			reject(i, ErrBadSignature)
			continue
		}
		if _, err := sc.s[slots].SetCanonicalBytes(sigs[i][32:]); err != nil {
			// Non-canonical s: RFC 8032 (and crypto/ed25519) reject it.
			reject(i, ErrBadSignature)
			continue
		}
		if _, err := sc.points[2*slots].SetBytes(pubs[i]); err != nil {
			reject(i, fmt.Errorf("%w: not a curve point", ErrBadPublicKey))
			continue
		}
		if _, err := sc.points[2*slots+1].SetBytes(sigs[i][:32]); err != nil {
			// sig[:32] is not the canonical encoding of any point, while
			// the R' a per-signature verify computes always encodes to
			// one — the comparison cannot succeed.
			reject(i, ErrBadSignature)
			continue
		}
		sc.hash.Reset()
		sc.hash.Write(sigs[i][:32])
		sc.hash.Write(pubs[i])
		sc.hash.Write(messages[i])
		if _, err := sc.k[slots].SetUniformBytes(sc.hash.Sum(sc.digest[:0])); err != nil {
			reject(i, ErrBadSignature)
			continue
		}
		sc.live[slots] = i
		slots++
	}
	live := sc.live[:slots]

	// each settles the live triples one by one: when the equation cannot
	// be formed, and — to pinpoint the offenders, and to make the final
	// verdict identical to Verify's — when it fails.
	each := func() []error {
		for _, i := range live {
			if err := Verify(pubs[i], messages[i], sigs[i]); err != nil {
				reject(i, err)
			}
		}
		return errs
	}
	if slots < MinBatchSize {
		return each()
	}

	// Random coefficients: one entropy read for the whole batch. If the
	// system entropy source is unusable, fall back to per-signature
	// verification rather than accepting a weaker equation.
	zRaw := sc.z[:batchCoefficientBytes*slots]
	if _, err := rand.Read(zRaw); err != nil {
		return each()
	}

	// Assemble [Σ z_i s_i]B + Σ [−z_i k_i]A_i + Σ [−z_i]R_i.
	var (
		zBuf       [32]byte
		z, bScalar edwards25519.Scalar
	)
	for slot := range live {
		copy(zBuf[:batchCoefficientBytes], zRaw[slot*batchCoefficientBytes:])
		if _, err := z.SetCanonicalBytes(zBuf[:]); err != nil {
			// Unreachable: a 128-bit value is always below the group
			// order l ≈ 2^252.
			panic("identity: batch coefficient out of range")
		}
		bScalar.MultiplyAdd(&z, &sc.s[slot], &bScalar)
		zNeg := sc.scalars[2*slot+1].Negate(&z)
		sc.scalars[2*slot].Multiply(zNeg, &sc.k[slot])
	}
	var check edwards25519.Point
	check.VarTimeMultiScalarBaseMult(&bScalar, sc.scalars[:2*slots], sc.points[:2*slots])
	if check.Equal(edwards25519.NewIdentityPoint()) == 1 {
		return errs
	}
	return each()
}

// verifyEach is the trivial per-signature path for degenerate batches.
func verifyEach(pubs []PublicKey, messages, sigs [][]byte) []error {
	var errs []error
	for i := range pubs {
		if err := Verify(pubs[i], messages[i], sigs[i]); err != nil {
			if errs == nil {
				errs = make([]error, len(pubs))
			}
			errs[i] = err
		}
	}
	return errs
}
