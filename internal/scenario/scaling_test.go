//go:build !race

package scenario

import (
	"context"
	"testing"
	"time"
)

// TestShardAdmissionScalesWithRegions holds the sharded topology's
// scaling property: regions admit in parallel, so four single-gateway
// regions deliver at least 0.8× four times the admission rate of one.
// Every gateway journals to its own disk with a fixed 5 ms fsync, which
// makes the disk each region's bottleneck; disk waits overlap across
// regions whatever the host's core count, so a ratio well under 1 means
// admission is serialized through shared state. On two cores the ratio
// reads ≈ 0.99. The race detector makes the run CPU-bound and the ratio
// then measures the cores (≈ 0.45), hence the build tag. A loaded host
// can starve one attempt, so the property holds if any of three does.
//
// What makes the throughput meaningful — the control namespace
// converging, no data leaking across regions, credit agreeing across
// them — is held by TestMultiRegionRoam and node's
// TestShardedRegionsConvergeWithoutLeakage.
func TestShardAdmissionScalesWithRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throughput ratio")
	}
	const (
		regions = 4
		floor   = 0.8
	)
	var ratios []float64
	for attempt := 0; attempt < 3; attempt++ {
		one := admissionRate(t, 1)
		many := admissionRate(t, regions)
		ratio := many / (regions * one)
		t.Logf("1 region %.0f tx/s, %d regions %.0f tx/s: %.2f× the ideal", one, regions, many, ratio)
		if ratio >= floor {
			return
		}
		ratios = append(ratios, ratio)
	}
	t.Fatalf("%d regions admitted %.2f× the ideal %d× one region on every attempt, want ≥ %.1f×",
		regions, ratios, regions, floor)
}

// admissionRate builds a deployment of single-gateway regions, lets six
// devices per region post thirty readings each back to back, and returns
// the aggregate admitted tx/s. A reading returns only once its gateway's
// journal holds it durably, so each device's cadence is set by its
// region's disk.
func admissionRate(t *testing.T, regions int) float64 {
	t.Helper()
	ctx := context.Background()
	spec := Spec{Name: "shard-scaling", Regions: regions, Gateways: 1, Devices: 6, PerPhase: 30}
	c, err := NewCluster(spec, scenarioSeed(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, g := range c.Gateways {
		g.Disk.SetSyncDelay(5 * time.Millisecond)
	}
	// Every gateway pulls the control namespace, so one that missed the
	// authorization-list push still admits its devices.
	if err := c.ReconcileAll(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Traffic(ctx, false); err != nil {
		t.Fatal(err)
	}
	return float64(c.admitted.Load()) / time.Since(start).Seconds()
}
