package node_test

import (
	"encoding/binary"
	"testing"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/node"
)

// TestVerifiedCacheRemembersRecentInsertions pins the two-generation
// contract: an ID is found for at least capacity/2 further insertions
// and is gone after capacity of them, whatever is looked up meanwhile.
func TestVerifiedCacheRemembersRecentInsertions(t *testing.T) {
	const capacity = 64
	id := func(i int) hashutil.Hash {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		return hashutil.Sum(b[:])
	}
	c := node.NewVerifiedCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Add(id(i))
		c.Add(id(i)) // an echo of the newest entry is not a new insertion
		for back := 0; back < capacity/2 && back <= i; back++ {
			if !c.Contains(id(i - back)) {
				t.Fatalf("after %d insertions, the one %d back is forgotten", i+1, back)
			}
		}
		if i >= capacity && c.Contains(id(i-capacity)) {
			t.Fatalf("after %d insertions, the one %d back is still remembered", i+1, capacity)
		}
	}
}
