package node_test

import (
	"runtime"
	"testing"
	"time"
)

// The tests' three ways to wait. Inside a bubble (inBubble) the time they
// wait is virtual; on real time each is the wait it says.

// waitFor polls cond until it holds, and fails the test with every
// goroutine's stack if 10 s go by first.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			stacks := make([]byte, 64<<10)
			t.Fatalf("timed out waiting until %s\n%s", what, stacks[:runtime.Stack(stacks, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitReturn receives from ch, and fails the test if 10 s go by first.
func awaitReturn[T any](t *testing.T, what string, ch <-chan T) (v T) {
	t.Helper()
	select {
	case v = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	return v
}

// received reports whether ch delivers once the goroutines the test
// started have done what they can without it: in a bubble, once all of
// them are durably blocked, which makes a false exact; on real time,
// after d, which makes a false mean only that nothing came in d.
func received[T any](ch <-chan T, d time.Duration) bool {
	settle(d)
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
