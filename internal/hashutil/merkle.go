package hashutil

import "errors"

// ErrEmptyMerkle is returned when building a Merkle root over no leaves.
var ErrEmptyMerkle = errors.New("merkle tree requires at least one leaf")

// Domain-separation prefixes prevent second-preimage attacks where an
// interior node is presented as a leaf (CVE-2012-2459 class).
var (
	leafPrefix     = []byte{0x00}
	interiorPrefix = []byte{0x01}
)

// MerkleRoot computes the root hash of a binary Merkle tree over the
// given leaves. Odd levels duplicate the final node, matching the
// Bitcoin construction used by the chain-structured baseline.
func MerkleRoot(leaves []Hash) (Hash, error) {
	if len(leaves) == 0 {
		return Zero, ErrEmptyMerkle
	}
	level := make([]Hash, len(leaves))
	for i, leaf := range leaves {
		level[i] = SumConcat(leafPrefix, leaf[:])
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			j := i + 1
			if j == len(level) {
				j = i // duplicate final node on odd levels
			}
			next = append(next, SumConcat(interiorPrefix, level[i][:], level[j][:]))
		}
		level = next
	}
	return level[0], nil
}
