package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"fmt"
	"sync"

	"github.com/b-iot/biot/internal/identity/edwards25519"
)

// A signature is valid under one rule, on every path: (A, M, R ‖ s) is
// valid iff s < ℓ, A and R decode to curve points, A is not of small
// order, and
//
//	[8]([s]B − [k]A − R) == identity,  k = SHA-512(R ‖ A ‖ M) mod ℓ,
//
// with k taken over the bytes as sent. The points decode the way
// edwards25519.Point.SetBytes does, so a non-canonical encoding of a
// valid point is accepted (ZIP-215); the cofactor makes the verdict the
// same whether a triple is checked alone or inside a batch, where a
// small-order defect would otherwise vanish for one random coefficient
// in eight. A key of small order is refused because under a cofactored
// rule anyone can sign for it; R of small or mixed order is accepted.

// batchCoefficientBytes sizes the random coefficient drawn per
// signature: 128 bits bounds a forged batch's acceptance probability at
// ~2^-128, matching the curve's security level; wider buys nothing.
const batchCoefficientBytes = 16

// triple is one signature in curve form: A and R decoded, s, and k.
type triple struct {
	a, r edwards25519.Point
	s, k edwards25519.Scalar
}

// decode puts one (key, message, signature) triple into t, or says why
// the rule refuses it before any equation: ErrBadKeyLength for a key of
// the wrong length, ErrBadPublicKey for one that is no curve point or is
// of small order, ErrBadSignature for a signature of the wrong length,
// with s ≥ ℓ or with an R that is no curve point.
func (t *triple) decode(pub PublicKey, message, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: length %d", ErrBadKeyLength, len(pub))
	}
	if len(sig) != ed25519.SignatureSize {
		return ErrBadSignature
	}
	if _, err := t.s.SetCanonicalBytes(sig[32:]); err != nil {
		return ErrBadSignature
	}
	if _, err := t.a.SetBytes(pub); err != nil {
		return fmt.Errorf("%w: not a curve point", ErrBadPublicKey)
	}
	if new(edwards25519.Point).MultByCofactor(&t.a).Equal(edwards25519.NewIdentityPoint()) == 1 {
		return fmt.Errorf("%w: small order", ErrBadPublicKey)
	}
	if _, err := t.r.SetBytes(sig[:32]); err != nil {
		return ErrBadSignature
	}
	// A local SHA-512 state stays on the stack: the compiler sees its type.
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(message)
	var digest [sha512.Size]byte
	// A SHA-512 digest is the 64 bytes SetUniformBytes takes: no error.
	t.k.SetUniformBytes(h.Sum(digest[:0]))
	return nil
}

// verify checks the decoded triple by the rule with no random
// coefficient: [s]B + [−k]A in one pass, minus R, times the cofactor.
func (t *triple) verify() error {
	var check edwards25519.Point
	negK := new(edwards25519.Scalar).Negate(&t.k)
	check.VarTimeMultiScalarBaseMult(&t.s, []*edwards25519.Scalar{negK}, []*edwards25519.Point{&t.a})
	check.Subtract(&check, &t.r)
	if check.MultByCofactor(&check).Equal(edwards25519.NewIdentityPoint()) != 1 {
		return ErrBadSignature
	}
	return nil
}

// Verify checks sig over message under pub by the rule above: one decode
// and the one-triple equation, which is VerifyBatch's verdict for the
// same triple. It works on the stack: a call allocates nothing.
func Verify(pub PublicKey, message, sig []byte) error {
	var t triple
	if err := t.decode(pub, message, sig); err != nil {
		return err
	}
	return t.verify()
}

// batchScratch is everything one batch equation works in besides the
// multi-scalar kernel's own tables: the decoded triples, the scalars and
// the coefficient bytes, 3.6 KB of garbage a signature when each call made
// them afresh. Like the kernel's, it grows to the largest batch it has
// served (callers chunk: the node's batchVerifyChunk is 64, ≈ 50 KB
// here). points and scalars hold the addresses of the values they
// multiply, so that a prefix of each is the kernel's argument as it
// stands.
//
// A scratch is reused without clearing. Triples are packed into slots in
// order; slot i is written whole (the triple, then both scalars) before
// anything reads it, and nothing reads past the last slot this call
// filled — a triple refused half-way leaves its slot to the next one.
type batchScratch struct {
	triples    []triple
	scalarVals []edwards25519.Scalar
	points     []*edwards25519.Point // A, R of slot i at 2i, 2i+1
	scalars    []*edwards25519.Scalar
	live       []int  // batch slot -> triple index
	z          []byte // batchCoefficientBytes a slot
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grow makes room for n slots.
func (sc *batchScratch) grow(n int) {
	if len(sc.live) >= n {
		return
	}
	sc.triples = make([]triple, n)
	sc.scalarVals = make([]edwards25519.Scalar, 2*n)
	sc.points = make([]*edwards25519.Point, 2*n)
	sc.scalars = make([]*edwards25519.Scalar, 2*n)
	for i := range sc.triples {
		sc.points[2*i], sc.points[2*i+1] = &sc.triples[i].a, &sc.triples[i].r
		sc.scalars[2*i], sc.scalars[2*i+1] = &sc.scalarVals[2*i], &sc.scalarVals[2*i+1]
	}
	sc.live = make([]int, n)
	sc.z = make([]byte, batchCoefficientBytes*n)
}

// VerifyBatch checks n (public key, message, signature) triples
// together. It returns nil when every signature verifies; otherwise it
// returns a slice of length n whose entry i reports triple i's failure
// (nil for the triples that are individually valid), so one bad
// signature in a gossip batch still pinpoints the offender. Entry i is
// always what Verify returns for triple i.
//
// Each triple is decoded as Verify decodes it; the ones refused there
// take no part in the equation. The rest are verified with a single
// multi-scalar equation: sample random 128-bit z_i and check
//
//	[8]([Σ z_i s_i]B − Σ [z_i k_i]A_i − Σ [z_i]R_i) == identity,
//
// which holds when every signature is valid under the rule and fails,
// except with probability ~2^-128, when any is not. One pass shares the
// 256-step doubling ladder across every term, so a batch of n costs
// roughly n·(two NAF tables + sparse additions) instead of n
// independent double-scalar multiplications. A batch of one, and a
// batch whose equation fails, is settled slot by slot with Verify's
// equation, on the points already decoded — the fallback is what
// attributes the failure.
//
// An all-valid batch allocates nothing: the equation works out of a
// pooled scratch.
func VerifyBatch(pubs []PublicKey, messages, sigs [][]byte) []error {
	n := len(pubs)
	if len(messages) != n || len(sigs) != n {
		panic(fmt.Sprintf("identity: VerifyBatch length mismatch: %d keys, %d messages, %d signatures",
			n, len(messages), len(sigs)))
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

	// Triple i participates in the batch equation iff it is given a slot.
	slots := 0
	for i := range n {
		if err := sc.triples[slots].decode(pubs[i], messages[i], sigs[i]); err != nil {
			reject(i, err)
			continue
		}
		sc.live[slots] = i
		slots++
	}

	each := func() []error {
		for slot, i := range sc.live[:slots] {
			if err := sc.triples[slot].verify(); err != nil {
				reject(i, err)
			}
		}
		return errs
	}
	if slots < 2 {
		return each()
	}

	// Random coefficients: one entropy read for the whole batch. If the
	// system entropy source is unusable, settle slot by slot rather than
	// accept a weaker equation.
	zRaw := sc.z[:batchCoefficientBytes*slots]
	if _, err := rand.Read(zRaw); err != nil {
		return each()
	}

	// Assemble [Σ z_i s_i]B + Σ [−z_i k_i]A_i + Σ [−z_i]R_i.
	var (
		zBuf       [64]byte // a 128-bit z in 64 little-endian bytes: below ℓ, so reduced as it is
		z, bScalar edwards25519.Scalar
	)
	for slot := range slots {
		copy(zBuf[:batchCoefficientBytes], zRaw[slot*batchCoefficientBytes:])
		z.SetUniformBytes(zBuf[:])
		t := &sc.triples[slot]
		bScalar.MultiplyAdd(&z, &t.s, &bScalar)
		zNeg := sc.scalars[2*slot+1].Negate(&z)
		sc.scalars[2*slot].Multiply(zNeg, &t.k)
	}
	var check edwards25519.Point
	check.VarTimeMultiScalarBaseMult(&bScalar, sc.scalars[:2*slots], sc.points[:2*slots])
	if check.MultByCofactor(&check).Equal(edwards25519.NewIdentityPoint()) == 1 {
		return errs
	}
	return each()
}
