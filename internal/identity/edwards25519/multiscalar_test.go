package edwards25519

import (
	"crypto/sha512"
	"math/big"
	"testing"
)

// testScalar derives a deterministic reduced scalar from a seed byte.
func testScalar(t *testing.T, seed byte) *Scalar {
	t.Helper()
	wide := sha512.Sum512([]byte{seed, 0xA5, seed ^ 0x3C})
	s, err := new(Scalar).SetUniformBytes(wide[:])
	if err != nil {
		t.Fatalf("SetUniformBytes: %v", err)
	}
	return s
}

func TestVarTimeMultiScalarBaseMultAgainstNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 33} {
		b := testScalar(t, byte(100+n))
		scalars := make([]*Scalar, n)
		points := make([]*Point, n)
		for i := range scalars {
			scalars[i] = testScalar(t, byte(2*i+1))
			points[i] = NewIdentityPoint().ScalarBaseMult(testScalar(t, byte(2*i+2)))
		}

		want := NewIdentityPoint().ScalarBaseMult(b)
		for i := range scalars {
			term := NewIdentityPoint().ScalarMult(scalars[i], points[i])
			want.Add(want, term)
		}

		got := NewIdentityPoint().VarTimeMultiScalarBaseMult(b, scalars, points)
		if got.Equal(want) != 1 {
			t.Fatalf("n=%d: multiscalar result diverges from naive sum", n)
		}
	}
}

func TestVarTimeMultiScalarBaseMultZeroScalars(t *testing.T) {
	zero := new(Scalar)
	p := NewIdentityPoint().ScalarBaseMult(testScalar(t, 7))
	got := NewIdentityPoint().VarTimeMultiScalarBaseMult(zero, []*Scalar{zero}, []*Point{p})
	if got.Equal(NewIdentityPoint()) != 1 {
		t.Fatal("all-zero scalars must yield the identity")
	}
}

func TestVarTimeMultiScalarBaseMultLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched input lengths")
		}
	}()
	NewIdentityPoint().VarTimeMultiScalarBaseMult(new(Scalar), []*Scalar{new(Scalar)}, nil)
}

// TestNonAdjacentFormReconstructs checks that the digits of a NAF sum
// back to the value, for full scalars and for 128-bit halves, at the two
// widths the kernel uses, and that a half has no digit above 128.
func TestNonAdjacentFormReconstructs(t *testing.T) {
	for seed := byte(0); seed < 64; seed++ {
		var b [32]byte
		copy(b[:], testScalar(t, seed).Bytes())
		values := [][32]byte{b, {}, {}}
		copy(values[1][:16], b[:16])
		copy(values[2][:16], b[16:])
		for vi, v := range values {
			want := new(big.Int)
			for i := 31; i >= 0; i-- {
				want.Lsh(want, 8).Or(want, big.NewInt(int64(v[i])))
			}
			for _, w := range []uint{5, 8} {
				naf := nonAdjacentForm(&v, w)
				got := new(big.Int)
				for i := 255; i >= 0; i-- {
					got.Lsh(got, 1).Add(got, big.NewInt(int64(naf[i])))
					if vi > 0 && i > 128 && naf[i] != 0 {
						t.Fatalf("seed %d value %d width %d: a 128-bit value has digit %d at %d", seed, vi, w, naf[i], i)
					}
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("seed %d value %d width %d: digits sum to %v, want %v", seed, vi, w, got, want)
				}
			}
		}
	}
}

func TestMultByPow2(t *testing.T) {
	p := NewIdentityPoint().ScalarBaseMult(testScalar(t, 9))
	want := new(Point).Set(p)
	for k := 0; k <= 130; k++ {
		if got := new(Point).MultByPow2(p, k); got.Equal(want) != 1 {
			t.Fatalf("[2^%d]p diverges from %d additions of a point to itself", k, k)
		}
		want.Add(want, want)
	}
}
