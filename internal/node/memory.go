package node

import "runtime"

// MemoryStats is the node's memory footprint, the quantity the hot/cold
// split bounds: resident vertices and boundary roots are O(frontier) in
// steady state no matter how long the node runs, the cold-ID count
// grows but lives on disk, and the journal shrinks back at every
// Compact. Served through Supervisor.Health on /healthz so a
// leak shows up on a dashboard, not in an OOM kill.
type MemoryStats struct {
	// ResidentVertices is the live (hot-region) tangle size.
	ResidentVertices int `json:"resident_vertices"`
	// BoundaryRoots is the snapshot-boundary set size — pruned IDs still
	// referenced by a live vertex.
	BoundaryRoots int `json:"boundary_roots"`
	// SnapshottedIDs counts every ID ever pruned (the cold region).
	SnapshottedIDs int `json:"snapshotted_ids"`
	MemoryGauges
	// ShardResidents is the per-namespace split of ResidentVertices
	// (shard ID → live vertices). A single-region deployment shows only
	// namespace 0; a region whose foreign-shard count grows is admitting
	// roamed traffic.
	ShardResidents map[uint32]int `json:"shard_residents,omitempty"`
	// BackboneSyncPages counts scoped control-plane pages pulled over
	// the backbone; CreditTxsMerged / CreditEventsMerged count remote
	// credit records folded into the local ledger. All cumulative.
	BackboneSyncPages  int64 `json:"backbone_sync_pages"`
	CreditTxsMerged    int64 `json:"credit_txs_merged"`
	CreditEventsMerged int64 `json:"credit_events_merged"`
}

// MemoryGauges is the part of MemoryStats that no other /metrics series
// carries, served there as biot_memory_* gauges: the ledger's sizes are
// LedgerMetrics gauges and the backbone counts CountersView counters.
type MemoryGauges struct {
	// JournalBytes is the on-disk size of the transaction log's durable
	// prefix (0 when memory-only).
	JournalBytes int64 `json:"journal_bytes"`
	// ColdIndexBytes is the on-disk size of the pruned-ID index (0 when
	// memory-only).
	ColdIndexBytes int64 `json:"cold_index_bytes"`
	// EvidenceVersions is the authorization-list versions retained in
	// the admission-evidence window (bounded by cap + epoch pruning).
	EvidenceVersions int `json:"evidence_versions"`
	// QuarantineLen is the number of relayed transactions parked
	// awaiting admission evidence (bounded by quarantineCap).
	QuarantineLen int `json:"quarantine_len"`
	// ReconcileLagMS is the time since the last completed backbone
	// reconciliation round, in milliseconds; -1 when no round has
	// completed (single-region deployments, or a backbone that never
	// connected — the alerting condition).
	ReconcileLagMS int64 `json:"reconcile_lag_ms"`
	// HeapInuse is the Go runtime's in-use heap, process-wide.
	HeapInuse uint64 `json:"heap_inuse_bytes"`
}

// MemoryStats returns the node's current memory footprint.
func (n *FullNode) MemoryStats() MemoryStats {
	return MemoryStats{
		ResidentVertices:   n.tangle.Size(),
		BoundaryRoots:      n.tangle.BoundaryCount(),
		SnapshottedIDs:     n.tangle.SnapshottedCount(),
		MemoryGauges:       n.MemoryGauges(),
		ShardResidents:     n.tangle.ResidentByShard(),
		BackboneSyncPages:  n.counters.BackboneSyncPages.Value(),
		CreditTxsMerged:    n.counters.CreditTxsMerged.Value(),
		CreditEventsMerged: n.counters.CreditEventsMerged.Value(),
	}
}

// MemoryGauges returns the gauges of the node's memory footprint that
// MemoryStats carries beside the ledger's sizes and the backbone counts.
func (n *FullNode) MemoryGauges() MemoryGauges {
	g := MemoryGauges{
		EvidenceVersions: n.registry.VersionsRetained(),
		QuarantineLen:    n.quar.size(),
		ReconcileLagMS:   -1,
	}
	if lag, ok := n.ReconcileLag(); ok {
		g.ReconcileLagMS = lag.Milliseconds()
	}
	if log := n.journal.Load(); log != nil {
		g.JournalBytes = log.Bytes()
	}
	if idx := n.coldIdx.Load(); idx != nil {
		g.ColdIndexBytes = idx.Bytes()
	}
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	g.HeapInuse = rt.HeapInuse
	return g
}
