//go:build !goexperiment.synctest

package node_test

import (
	"testing"
	"time"
)

// inBubble runs body on real time: without GOEXPERIMENT=synctest there is
// no bubble (bubble_test.go is the virtual-time build).
func inBubble(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	body(t)
}

// settle gives the goroutines the test started d to do what they can.
func settle(d time.Duration) { time.Sleep(d) }
