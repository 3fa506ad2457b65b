package identity

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/b-iot/biot/internal/identity/edwards25519"
)

var update = flag.Bool("update", false, "rewrite testdata/corner_cases.json from its generator")

const cornerCasesFile = "corner_cases.json"

// cornerCase is one committed signature vector and the rule's verdict on
// it: "ok", or the name of the sentinel the refusal wraps.
type cornerCase struct {
	Name string `json:"name"`
	Pub  string `json:"pub"`
	Msg  string `json:"msg"`
	Sig  string `json:"sig"`
	Want string `json:"want"`
}

func (c cornerCase) pub() []byte { return mustHex(c.Pub) }
func (c cornerCase) msg() []byte { return mustHex(c.Msg) }
func (c cornerCase) sig() []byte { return mustHex(c.Sig) }

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

var verdicts = map[string]error{
	"ok":              nil,
	"ErrBadSignature": ErrBadSignature,
	"ErrBadPublicKey": ErrBadPublicKey,
	"ErrBadKeyLength": ErrBadKeyLength,
}

// buildCornerCases makes the vectors with the vendored curve code, after
// the corner cases of Chalkias et al., "Taming the many EdDSAs": small-
// and mixed-order A and R, s ≥ ℓ, and non-canonical encodings of A and R.
// It is deterministic: the committed file is its output.
func buildCornerCases() []cornerCase {
	key, err := FromSeed(bytes.Repeat([]byte{0xB1}, SeedSize))
	if err != nil {
		panic(err)
	}
	a, pub := secretScalar(key), []byte(key.Public())
	msg := []byte("b-iot corner case")
	rng := rand.New(rand.NewSource(0x5EC))
	zero := new(edwards25519.Scalar)
	var multiples [8]*edwards25519.Point // [m]T for T of order 8: order 8/gcd(m, 8)
	multiples[0] = edwards25519.NewIdentityPoint()
	for m := 1; m < 8; m++ {
		multiples[m] = new(edwards25519.Point).Add(multiples[m-1], torsion8)
	}
	prime := new(edwards25519.Point).ScalarBaseMult(a) // A without torsion, as a point
	mixed := func(p *edwards25519.Point, m int) []byte { return new(edwards25519.Point).Add(p, multiples[m]).Bytes() }
	// nonCanonical encodes the field element y + p for y < 19, with the sign bit.
	nonCanonical := func(y byte, sign byte) []byte {
		b := bytes.Repeat([]byte{0xFF}, 32)
		b[0], b[31] = 0xED+y, 0x7F|sign<<7
		return b
	}
	// offCurve encodes the first small y that is no curve point; wideY is
	// y + p for the first small y that is a point of large order.
	var offCurve, wideY []byte
	for y := byte(2); y < 19 && (offCurve == nil || wideY == nil); y++ {
		enc := make([]byte, 32)
		enc[0] = y
		p, err := new(edwards25519.Point).SetBytes(enc)
		switch {
		case err != nil && offCurve == nil:
			offCurve = enc
		case err == nil && wideY == nil && new(edwards25519.Point).MultByCofactor(p).Equal(multiples[0]) != 1:
			wideY = nonCanonical(y, 0)
		}
	}

	var out []cornerCase
	add := func(name string, pub, sig []byte, want string) {
		out = append(out, cornerCase{Name: name, Pub: hex.EncodeToString(pub), Msg: hex.EncodeToString(msg),
			Sig: hex.EncodeToString(sig), Want: want})
	}
	add("ordinary signature", pub, key.Sign(msg), "ok")
	for _, small := range []struct{ m, order int }{{0, 1}, {4, 2}, {2, 4}, {1, 8}} {
		A := multiples[small.m].Bytes()
		add(fmt.Sprintf("small-order A of order %d, small-order R, s = 0", small.order),
			A, signWith(zero, zero, A, multiples[1].Bytes(), msg), "ErrBadPublicKey")
	}
	r, rBytes := torsionCommitment(rng, multiples[0])
	mixedR := mixed(new(edwards25519.Point).ScalarBaseMult(r), 3)
	add("small-order A, mixed-order R", multiples[1].Bytes(), signWith(zero, r, multiples[1].Bytes(), mixedR, msg), "ErrBadPublicKey")
	add("mixed-order A, prime-order R", mixed(prime, 1), signWith(a, r, mixed(prime, 1), rBytes, msg), "ok")
	r, rBytes = torsionCommitment(rng, multiples[5])
	add("mixed-order A, mixed-order R", mixed(prime, 1), signWith(a, r, mixed(prime, 1), rBytes, msg), "ok")
	add("prime-order A, mixed-order R (R + T)", pub, signWith(a, r, pub, rBytes, msg), "ok")
	add("prime-order A, small-order R of order 8", pub, signWith(a, zero, pub, multiples[1].Bytes(), msg), "ok")
	add("prime-order A, R the identity", pub, signWith(a, zero, pub, multiples[0].Bytes(), msg), "ok")
	sig := key.Sign(msg)
	ell := mustHex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010")
	for i, carry := 32, 0; i < 64; i++ { // s += ℓ, little-endian
		v := int(sig[i]) + int(ell[i-32]) + carry
		sig[i], carry = byte(v), v>>8
	}
	add("s ≥ ℓ: an ordinary signature's s plus ℓ", pub, sig, "ErrBadSignature")
	add("non-canonical R: the identity as y = p + 1", pub, signWith(a, zero, pub, nonCanonical(1, 0), msg), "ok")
	add("non-canonical R: the identity with the sign bit set", pub,
		signWith(a, zero, pub, append(multiples[0].Bytes()[:31:31], 0x80), msg), "ok")
	add("non-canonical R: the point of order 2 with the sign bit set", pub,
		signWith(a, zero, pub, append(multiples[4].Bytes()[:31:31], 0xFF), msg), "ok")
	add("non-canonical A: the identity as y = p + 1", nonCanonical(1, 0),
		signWith(zero, zero, nonCanonical(1, 0), multiples[0].Bytes(), msg), "ErrBadPublicKey")
	add("non-canonical A of large order, y + p: decoded, then the equation fails", wideY,
		signWith(a, zero, wideY, multiples[0].Bytes(), msg), "ErrBadSignature")
	add("A not on the curve", offCurve, key.Sign(msg), "ErrBadPublicKey")
	add("R not on the curve", pub, signWith(a, zero, pub, offCurve, msg), "ErrBadSignature")
	return out
}

// loadCornerCases reads the committed vectors.
func loadCornerCases(tb testing.TB) []cornerCase {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", cornerCasesFile))
	if err != nil {
		tb.Fatal(err)
	}
	var cases []cornerCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		tb.Fatal(err)
	}
	return cases
}

// TestCornerCaseVectors checks every committed vector with Verify, and
// with VerifyBatch beside a valid companion on either side of it, against
// the verdict the file gives. The file is the generator's output and
// changes only through -update.
func TestCornerCaseVectors(t *testing.T) {
	built, err := json.MarshalIndent(buildCornerCases(), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	built = append(built, '\n')
	path := filepath.Join("testdata", cornerCasesFile)
	if *update {
		if err := os.WriteFile(path, built, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if committed, err := os.ReadFile(path); err != nil || !bytes.Equal(committed, built) {
		t.Fatalf("%s is not the generator's output (%v): rerun with -update and review the diff", path, err)
	}
	companion, err := FromSeed(bytes.Repeat([]byte{0xC0}, SeedSize))
	if err != nil {
		t.Fatal(err)
	}
	cMsg := []byte("a valid companion")
	cSig := companion.Sign(cMsg)
	for _, c := range loadCornerCases(t) {
		want, known := verdicts[c.Want]
		if !known {
			t.Fatalf("%s: unknown verdict %q", c.Name, c.Want)
		}
		matches := func(err error) bool { return errors.Is(err, want) } // nil matches only nil
		if err := Verify(c.pub(), c.msg(), c.sig()); !matches(err) {
			t.Errorf("%s: Verify = %v, want %s", c.Name, err, c.Want)
		}
		for at := 0; at < 2; at++ {
			pubs := []PublicKey{companion.Public(), companion.Public()}
			msgs, sigs := [][]byte{cMsg, cMsg}, [][]byte{cSig, cSig}
			pubs[at], msgs[at], sigs[at] = c.pub(), c.msg(), c.sig()
			errs := VerifyBatch(pubs, msgs, sigs)
			if errs == nil {
				errs = make([]error, 2)
			}
			if !matches(errs[at]) || errs[1-at] != nil {
				t.Errorf("%s at %d beside a valid companion: VerifyBatch = %v, want %s", c.Name, at, errs, c.Want)
			}
		}
	}
}
