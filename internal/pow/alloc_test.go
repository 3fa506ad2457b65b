//go:build !race

package pow

import (
	"context"
	"testing"

	"github.com/b-iot/biot/internal/hashutil"
)

// TestSearchAllocatesNothing: with its hasher pooled, a search at a
// difficulty it settles in a few hundred attempts allocates nothing.
func TestSearchAllocatesNothing(t *testing.T) {
	var w Worker
	trunk, branch := hashutil.Sum([]byte("t")), hashutil.Sum([]byte("b"))
	if _, err := w.Search(context.Background(), trunk, branch, 8); err != nil { // fills the pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.Search(context.Background(), trunk, branch, 8); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a search allocates %.1f times, want 0", allocs)
	}
}
