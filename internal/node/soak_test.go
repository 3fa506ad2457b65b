package node_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/node"
)

// TestSoakFiveNodeConvergence is the deterministic multi-node soak
// harness: five full nodes (manager + four gateways) on an in-memory
// bus with injected delivery latency, ten devices submitting hundreds
// of readings from concurrent goroutines, and a mid-run partition of
// one gateway. After the partition heals and sync runs to fixpoint,
// every node must hold the identical tangle and derive the identical
// credit state for every device.
//
// Determinism: the deployment shares one seeded virtual clock (all
// transactions in a phase carry the same timestamp, so credit records
// are order-independent), phases are separated by WaitGroup barriers
// rather than wall-clock sleeps, and convergence is reached by syncing
// to fixpoint rather than waiting.
func TestSoakFiveNodeConvergence(t *testing.T) { inBubble(t, testSoakFiveNodeConvergence) }
func testSoakFiveNodeConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness mines hundreds of proofs of work")
	}
	const (
		gatewayCount = 4  // plus the manager: five full nodes
		deviceCount  = 10 // two per full node
		perPhase     = 10 // submissions per device per phase
		phases       = 3  // 10 devices × 10 × 3 = 300 submissions
	)
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	dep := newMultiNode(t, gatewayCount, clk)
	dep.bus.SetLatency(50 * time.Microsecond)

	fulls := append([]*node.FullNode{dep.mgr.Node()}, dep.gateways...)

	// Two devices per full node, all authorized up front.
	devices := make([]*node.LightNode, deviceCount)
	for i := range devices {
		devices[i] = newTestDevice(t, fulls[i%len(fulls)], clk)
		dep.mgr.AuthorizeDevice(devices[i].Key().Public(), devices[i].Key().BoxPublic())
	}
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	// runPhase drives every device concurrently and joins at a barrier.
	runPhase := func(phase int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, deviceCount)
		for d, dev := range devices {
			wg.Add(1)
			go func(d int, dev *node.LightNode) {
				defer wg.Done()
				for i := 0; i < perPhase; i++ {
					payload := []byte(fmt.Sprintf("soak p%d d%d i%d", phase, d, i))
					if _, err := dev.PostReading(ctx, payload); err != nil {
						errs <- fmt.Errorf("phase %d device %d: %w", phase, d, err)
						return
					}
				}
			}(d, dev)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	runPhase(0)
	clk.Advance(time.Second)

	// Mid-run partition: gw-2 is cut off from everyone. Its own devices
	// keep submitting (local admission stays up); fan-out to and from it
	// fails or drops until the partition heals.
	dep.bus.Isolate("gw-2")
	runPhase(1)
	clk.Advance(time.Second)
	dep.bus.Restore("gw-2")

	runPhase(2)
	clk.Advance(time.Second)

	// Drain every async pipeline, then pull-sync to fixpoint: repeated
	// rounds until all five nodes expose identical transaction sets.
	dep.flush(t)
	idSet := func(n *node.FullNode) map[string]bool {
		set := make(map[string]bool)
		for _, tr := range n.Tangle().ExportRange(0, n.Tangle().Size()) {
			set[tr.ID().String()] = true
		}
		return set
	}
	equalSets := func(a, b map[string]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for id := range a {
			if !b[id] {
				return false
			}
		}
		return true
	}
	converged := false
	for round := 0; round < 20 && !converged; round++ {
		for _, n := range fulls {
			n.SyncAll(ctx)
		}
		converged = true
		ref := idSet(fulls[0])
		for _, n := range fulls[1:] {
			if !equalSets(ref, idSet(n)) {
				converged = false
				break
			}
		}
	}
	if !converged {
		for i, n := range fulls {
			t.Logf("node %d tangle size %d", i, n.Tangle().Size())
		}
		t.Fatal("nodes did not converge to identical tangles")
	}

	// Every submission made it into the shared ledger (none lost to the
	// partition, the async pipeline, or slow-peer drops).
	wantTxs := deviceCount * perPhase * phases
	ref := fulls[0].Tangle().Size()
	if ref < wantTxs {
		t.Errorf("converged tangle has %d transactions, want ≥ %d", ref, wantTxs)
	}

	// Credit convergence: every node independently derives the same
	// credit state — and therefore the same PoW difficulty — for every
	// device ("the credit value cannot be forged or tampered").
	now := clk.Now()
	for d, dev := range devices {
		refCredit := fmt.Sprintf("%+v", fulls[0].Engine().CreditOf(dev.Address(), now))
		refDiff := fulls[0].DifficultyFor(dev.Address())
		for i, n := range fulls[1:] {
			if got := fmt.Sprintf("%+v", n.Engine().CreditOf(dev.Address(), now)); got != refCredit {
				t.Errorf("device %d: node %d credit %s != %s", d, i+1, got, refCredit)
			}
			if got := n.DifficultyFor(dev.Address()); got != refDiff {
				t.Errorf("device %d: node %d difficulty %d != %d", d, i+1, got, refDiff)
			}
		}
	}
}
