//go:build goexperiment.synctest

// The module's go line would give the program's timers asynchronous
// channels, under which synctest.Run panics; inside the bubble they are
// synchronous. The real-time build (bubble_realtime_test.go) keeps the
// module's default.
//
//go:debug asynctimerchan=0

package node_test

import (
	"testing"
	"testing/synctest"
	"time"
)

// inBubble runs body as a subtest inside a synctest bubble, so that its
// cleanups run inside it too. Time there is virtual: it stands still
// while a goroutine of the bubble can run, and jumps to the next timer
// once every one of them is durably blocked. A sleep, a poll or a timer
// of the program costs no wall time, and a goroutine the test leaves
// blocked is a deadlock the bubble reports. A goroutine waiting on a
// sync.Mutex or RWMutex is not durably blocked, so a test in which one
// waits while the clock must move stays on real time. Go 1.25 replaces
// synctest.Run with synctest.Test(t, body), which does what this does.
func inBubble(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { t.Run("bubble", body) })
}

// settle returns once every other goroutine of the bubble is durably
// blocked: what they can do without the test acting, they have done.
func settle(time.Duration) { synctest.Wait() }
