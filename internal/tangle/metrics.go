package tangle

import "github.com/b-iot/biot/internal/metrics"

// Metrics is the ledger's observability surface: gauges tracking the
// anchored tip-selection machinery so a deployment can see that walk
// cost stays bounded as the tangle grows (and notice when it does not —
// e.g. WalkFallbacks climbing means the anchor region is being starved
// or pruned too aggressively).
type Metrics struct {
	// AnchorHeight is the DAG height of the tallest current walk
	// anchor — how far the confirmed frontier has moved from genesis.
	AnchorHeight metrics.Gauge
	// AnchorCount is the current size of the anchor set.
	AnchorCount metrics.Gauge
	// WalkLength is the step count of the most recent weighted walk;
	// WalkLengthMax is the peak observed since start. Bounded walk
	// length as Size grows is the whole point of anchoring.
	WalkLength    metrics.Gauge
	WalkLengthMax metrics.Gauge
	// WalkFallbacks counts anchored walks that ended off-tip and were
	// restarted from genesis (the correctness fallback).
	WalkFallbacks metrics.Counter
	// GenesisWalks counts weighted walks that started at genesis
	// because no usable anchor existed (fresh tangle, or anchors all
	// pruned/rejected).
	GenesisWalks metrics.Counter

	// Memory-footprint gauges for the hot/cold split (cold.go).
	// ResidentVertices is the live in-memory vertex count;
	// BoundaryRoots the pruned IDs pinned as boundary roots; ColdTotal
	// the distinct IDs pruned over the node's lifetime (on disk when a
	// cold store is installed). Flat ResidentVertices and BoundaryRoots
	// under load with pruning enabled is the bounded-memory invariant.
	ResidentVertices metrics.Gauge
	BoundaryRoots    metrics.Gauge
	ColdTotal        metrics.Gauge
	// ColdErrors counts cold-index I/O failures (membership checks
	// degraded to "not cold", or a snapshot round skipped).
	ColdErrors metrics.Counter
}

// Metrics exposes the ledger's gauges and counters, the tangle's own:
// reading them is always safe, concurrent with any tangle operation.
func (t *Tangle) Metrics() *Metrics { return &t.met }
