package node_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/b-iot/biot/internal/scenario"
)

// chaosSeed returns the soak's master seed: BIOT_CHAOS_SEED re-runs a
// failing schedule exactly; otherwise a fixed default keeps CI
// deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("BIOT_CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("BIOT_CHAOS_SEED: %v", err)
		}
		return seed
	}
	return 0xC4A05
}

// TestChaosSoakConvergenceZeroLoss is the fault-injection counterpart
// of TestSoakFiveNodeConvergence, and the first consumer of the
// scenario harness: the machine-carnage cell composes a node kill with
// a machine reboot (disk page cache tears away), an fsync poisoning
// healed by the watchdog, probabilistic gossip faults
// (drop/duplicate/delay/reorder) and a full partition. After healing,
// the cluster must converge to identical tangles with ZERO loss of any
// transaction whose submit succeeded while its gateway's journal was
// verifiably healthy, and with every node reporting the same credit.
//
// Every random choice (disk tear survival, gossip fault schedule)
// derives from one seed, printed on failure and pinned with
// BIOT_CHAOS_SEED for replay. The scenario body lives in
// internal/scenario/matrix.go; this test keeps the historical soak
// name and seed knob on top of it.
func TestChaosSoakConvergenceZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak mines hundreds of proofs of work")
	}
	seed := chaosSeed(t)
	spec := scenario.MachineCarnage(scenario.TierCI)
	res, err := scenario.Run(context.Background(), spec, seed)
	if err != nil {
		t.Fatalf("[seed %d — rerun with BIOT_CHAOS_SEED=%d] %s",
			seed, seed, fmt.Sprintf("%v\nrow: %+v", err, res))
	}
	t.Logf("chaos soak: %d nodes converged at %d transactions, %d guaranteed-durable all present, "+
		"credit parity max Δ %.2g, watchdog restarts=%d — %s",
		res.Nodes, res.TangleSize, res.Durable, res.MaxCreditDelta, res.Restarts, res.Notes)
}
