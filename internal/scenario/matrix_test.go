package scenario

import (
	"context"
	"os"
	"strconv"
	"testing"
)

// scenarioSeed returns the matrix's master seed: BIOT_SCENARIO_SEED
// replays a failing cell exactly; otherwise a fixed default keeps CI
// deterministic.
func scenarioSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("BIOT_SCENARIO_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("BIOT_SCENARIO_SEED: %v", err)
		}
		return seed
	}
	return 0xB107
}

// shortSubset is the matrix slice that still runs under -short: one
// cheap representative per class that doesn't mine attack campaigns.
var shortSubset = map[string]bool{
	"wlan-congested":        true,
	"device-churn-mobility": true,
	"revocation-storm":      true,
}

func runMatrix(t *testing.T, tier Tier) {
	seed := scenarioSeed(t)
	for _, spec := range Matrix(tier) {
		spec := spec
		if testing.Short() && !shortSubset[spec.Name] {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			res, err := Run(context.Background(), spec, seed)
			if err != nil {
				t.Fatalf("[seed %d — rerun with BIOT_SCENARIO_SEED=%d] %s: %v\nrow: %+v",
					seed, seed, spec.Name, err, res)
			}
			t.Logf("%s: %d nodes, %d/%d admitted, %d durable (0 lost), converged in %d sync rounds, "+
				"tangle %d, credit parity max Δ %.2g, restarts %d%s",
				spec.Name, res.Nodes, res.Admitted, res.Submitted, res.Durable,
				res.SyncRounds, res.TangleSize, res.MaxCreditDelta, res.Restarts,
				notesSuffix(res.Notes))
		})
	}
}

func notesSuffix(notes string) string {
	if notes == "" {
		return ""
	}
	return " — " + notes
}

// TestScenarioMatrix runs every named scenario at the 20-node CI tier
// (a class-covering subset under -short). Each cell enforces the
// pinned assertions: convergence, zero admitted-transaction loss, and
// credit-oracle parity on every node.
func TestScenarioMatrix(t *testing.T) {
	runMatrix(t, TierCI)
}

// TestScenarioMatrixLong runs the matrix at the 100+-node tier. It is
// opt-in via BIOT_SCENARIO_LONG=1 (make test-scenarios-long) so the
// ordinary suite stays fast, and never runs under -short.
func TestScenarioMatrixLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long tier runs 111 nodes")
	}
	if os.Getenv("BIOT_SCENARIO_LONG") == "" {
		t.Skip("set BIOT_SCENARIO_LONG=1 (or run make test-scenarios-long) to run the 100+-node tier")
	}
	runMatrix(t, TierLong)
}

// TestFlakeSweep replays matrix cells at many DISTINCT seeds, because
// seed-determinism is not schedule-determinism: a cell that passes at
// the default seed can still lose a goroutine race one run in twenty.
//
// Unset, BIOT_FLAKE_RUNS leaves the in-suite smoke: the revocation-storm
// cell — which used to flake ~8%/run when relay admission was judged
// against the live registry instead of admission evidence — at five
// seeds. make test-flake sets it to 60 and the sweep then covers EVERY
// matrix cell at that many seeds under -race (at the old 8% rate, >99%
// probability of reproducing at least one failure). Every
// revocation-storm run must also finish with zero relay-path
// authorization rejects: the fix is only credible if the storm produces
// NO stale-gate activity at all, not merely a recovered registry.
func TestFlakeSweep(t *testing.T) {
	cells, runs := []string{"revocation-storm"}, 5
	if env := os.Getenv("BIOT_FLAKE_RUNS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("BIOT_FLAKE_RUNS: bad value %q", env)
		}
		runs, cells = v, nil
		for _, spec := range Matrix(TierCI) {
			cells = append(cells, spec.Name)
		}
	}
	base := scenarioSeed(t)
	for _, name := range cells {
		for i := 0; i < runs; i++ {
			seed := base + int64(i)
			t.Run(name+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				t.Parallel()
				// A fresh Spec per run: the storm hooks close over mutable
				// per-run state (revocation rotation, expected rejects).
				spec, ok := SpecByName(name, TierCI)
				if !ok {
					t.Fatalf("%s missing from the matrix", name)
				}
				res, err := Run(context.Background(), spec, seed)
				if err != nil {
					t.Fatalf("[rerun with BIOT_SCENARIO_SEED=%d] %v\nrow: %+v", seed, err, res)
				}
				if name == "revocation-storm" && res.StaleAuthRejects != 0 {
					t.Fatalf("[seed %d] %d stale-gate rejects, want 0", seed, res.StaleAuthRejects)
				}
			})
		}
	}
}

// TestSpecByName pins the registry surface the soak test depends on.
func TestSpecByName(t *testing.T) {
	if _, ok := SpecByName("machine-carnage", TierCI); !ok {
		t.Fatal("machine-carnage missing from the matrix")
	}
	if _, ok := SpecByName("no-such-scenario", TierCI); ok {
		t.Fatal("unknown name resolved")
	}
	specs := Matrix(TierCI)
	if len(specs) < 6 {
		t.Fatalf("matrix has %d scenarios, want ≥ 6", len(specs))
	}
	seen := make(map[string]bool)
	for _, spec := range specs {
		if seen[spec.Name] {
			t.Fatalf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		gw, dev, _, _ := sizes(TierLong)
		if spec.Tier == TierCI && spec.Gateways+spec.Devices+1 != 20 {
			t.Errorf("%s: CI tier is %d nodes, want 20", spec.Name, spec.Gateways+spec.Devices+1)
		}
		if gw+dev+1 < 100 {
			t.Errorf("long tier is %d nodes, want 100+", gw+dev+1)
		}
	}
}
