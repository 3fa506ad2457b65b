package edwards25519

import (
	"crypto/sha512"
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
