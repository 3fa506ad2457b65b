package hashutil

import (
	"fmt"
	"testing"
	"testing/quick"
)

func leavesN(n int) []Hash {
	out := make([]Hash, n)
	for i := range out {
		out[i] = Sum([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return out
}

func TestMerkleRootEmpty(t *testing.T) {
	if _, err := MerkleRoot(nil); err == nil {
		t.Error("empty merkle root succeeded, want error")
	}
}

func TestMerkleRootDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			leaves := leavesN(n)
			r1, err := MerkleRoot(leaves)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := MerkleRoot(leaves)
			if err != nil {
				t.Fatal(err)
			}
			if r1 != r2 {
				t.Error("roots differ across runs")
			}
		})
	}
}

func TestMerkleRootSensitiveToLeafChange(t *testing.T) {
	leaves := leavesN(8)
	before, err := MerkleRoot(leaves)
	if err != nil {
		t.Fatal(err)
	}
	leaves[3][0] ^= 0x01
	after, err := MerkleRoot(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Error("root unchanged after leaf mutation")
	}
}

func TestMerkleRootSensitiveToOrder(t *testing.T) {
	leaves := leavesN(4)
	before, err := MerkleRoot(leaves)
	if err != nil {
		t.Fatal(err)
	}
	leaves[0], leaves[1] = leaves[1], leaves[0]
	after, err := MerkleRoot(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Error("root unchanged after leaf reorder")
	}
}

func TestMerkleLeafInteriorDomainSeparation(t *testing.T) {
	// A single leaf's root must not equal the raw leaf hash (the
	// classic second-preimage confusion).
	leaf := Sum([]byte("solo"))
	root, err := MerkleRoot([]Hash{leaf})
	if err != nil {
		t.Fatal(err)
	}
	if root == leaf {
		t.Error("single-leaf root equals leaf hash: missing domain separation")
	}
}

// Property: merkle roots over distinct leaf multisets (different first
// leaf) differ — collision resistance at the structural level.
func TestMerkleRootInjectiveish(t *testing.T) {
	check := func(a, b Hash) bool {
		if a == b {
			return true
		}
		r1, err1 := MerkleRoot([]Hash{a, b})
		r2, err2 := MerkleRoot([]Hash{b, a})
		return err1 == nil && err2 == nil && r1 != r2
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
