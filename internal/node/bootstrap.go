package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Snapshot-shipped bootstrap: a gateway joining a deployment whose
// history has been pruned cannot replay that history — no peer still
// has it. Instead it asks one peer for a snapshot manifest (the epoch
// boundary: boundary roots + the pruned history's credit events), seeds its
// tangle with the boundary shape, and then pages only the live region
// through the ordinary cursor sync. Join cost is O(frontier), not
// O(history): a year-old deployment and a day-old one cost the same to
// join. Cursor-paged sync remains the catch-up path for nodes that were
// merely offline, and the full-replay fallback still works against
// peers that have never pruned.

const (
	// maxManifestBoundary bounds the boundary-root set a manifest may
	// carry; the boundary is O(frontier), so a manifest past this is a
	// confused or hostile peer, not a big deployment.
	maxManifestBoundary = 1 << 16
	// maxManifestCreditNodes bounds the credit entries in a manifest.
	maxManifestCreditNodes = 1 << 14
	// maxManifestEvents bounds seeded events per node on the wire; the
	// credit ledger itself keeps 256 a node and folds older ones into a
	// carry term.
	maxManifestEvents = 4096
)

// ManifestCredit is one node's misbehaviour a joiner cannot re-derive.
// Only malicious events cross the manifest: positive credit re-derives
// from the live region as it attaches, but punishment "cannot be
// eliminated" — a bootstrapped gateway must not see offenders as clean-slate.
type ManifestCredit struct {
	Addr   identity.Address   `json:"addr"`
	Events []core.EventRecord `json:"events"`
}

// SnapshotManifest describes a peer's snapshot epoch: everything a
// fresh node needs to attach the peer's live region without the pruned
// history beneath it. It travels JSON-encoded in TxData[0] of a
// MsgSnapshotResponse.
type SnapshotManifest struct {
	// Epoch is the peer's last snapshot cutoff (zero: never pruned).
	Epoch time.Time `json:"epoch"`
	// Boundary is the sorted boundary-root set — pruned IDs still
	// referenced as parents by the peer's live vertices.
	Boundary []hashutil.Hash `json:"boundary,omitempty"`
	// Live and Cold size the peer's regions, for operator visibility.
	Live int `json:"live"`
	Cold int `json:"cold"`
	// Credit carries the events whose evidence was pruned, per node.
	Credit []ManifestCredit `json:"credit,omitempty"`
}

// SnapshotManifest builds this node's manifest: its current boundary
// roots, snapshot epoch, and every credit event naming a transaction
// this node no longer holds. A joiner attaches exactly the resident
// ledger, so an event whose evidence is all resident re-derives there,
// and shipping it would count it twice; the split reads what the cut
// pruned, not when the event was recorded.
func (n *FullNode) SnapshotManifest() SnapshotManifest {
	epoch := n.tangle.ColdEpoch()
	m := SnapshotManifest{
		Epoch:    epoch,
		Boundary: n.tangle.BoundaryRoots(),
		Live:     n.tangle.Size(),
		Cold:     n.tangle.SnapshottedCount(),
	}
	if epoch.IsZero() {
		return m
	}
	led := n.engine.Ledger()
	for _, addr := range led.Nodes() {
		var evs []core.EventRecord
		for _, ev := range led.Events(addr) {
			if slices.ContainsFunc(ev.Evidence, func(id hashutil.Hash) bool { return !n.tangle.Contains(id) }) {
				evs = append(evs, ev)
			}
		}
		if len(evs) > 0 {
			m.Credit = append(m.Credit, ManifestCredit{Addr: addr, Events: evs})
		}
	}
	return m
}

// BootstrapStats reports how a join went.
type BootstrapStats struct {
	// Mode is "snapshot" (boundary-seeded, live region only) or
	// "replay" (full paged history — the peer had never pruned).
	Mode string
	// Peer served the join.
	Peer string
	// Boundary is the number of seeded boundary roots (snapshot mode).
	Boundary int
	// CreditSeeded is the number of credit events the manifest carried.
	CreditSeeded int
	// Live is the tangle size after the join converged.
	Live int
	// Elapsed is wall-clock join time.
	Elapsed time.Duration
}

// BootstrapFrom joins via one peer. On a fresh node it requests the
// peer's snapshot manifest; if the peer has pruned history it seeds the
// boundary roots and the shipped credit events, then pages the live
// region with the ordinary (fully verified) cursor sync. If the peer
// has never pruned, it falls back to full paged replay from that peer —
// there the history IS the frontier. Either way the node converges on a
// tangle byte-identical to what full replay would have built from the
// peer's live region.
func (n *FullNode) BootstrapFrom(ctx context.Context, peer string) (BootstrapStats, error) {
	stats := BootstrapStats{Peer: peer}
	if n.cfg.Network == nil {
		return stats, errors.New("bootstrap requires a network")
	}
	start := n.cfg.Clock.Now()

	reply, err := n.cfg.Network.Request(ctx, peer, gossip.Message{Type: gossip.MsgSnapshotRequest})
	if err != nil {
		return stats, fmt.Errorf("snapshot request to %s: %w", peer, err)
	}
	if reply.Type != gossip.MsgSnapshotResponse || len(reply.TxData) != 1 {
		return stats, fmt.Errorf("peer %s: malformed snapshot response (type %v, %d blobs)",
			peer, reply.Type, len(reply.TxData))
	}
	var m SnapshotManifest
	if err := json.Unmarshal(reply.TxData[0], &m); err != nil {
		return stats, fmt.Errorf("peer %s: decode snapshot manifest: %w", peer, err)
	}
	if len(m.Boundary) > maxManifestBoundary || len(m.Credit) > maxManifestCreditNodes {
		return stats, fmt.Errorf("peer %s: manifest exceeds bounds (%d boundary roots, %d credit nodes)",
			peer, len(m.Boundary), len(m.Credit))
	}
	if m.Epoch.After(start.Add(maxClockSkew)) {
		return stats, fmt.Errorf("peer %s: manifest epoch %v is in the future", peer, m.Epoch)
	}

	if m.Epoch.IsZero() || len(m.Boundary) == 0 {
		// The peer holds its full history live; paged replay is already
		// the O(frontier) join.
		stats.Mode = "replay"
		n.catchUp(ctx, peer)
		stats.Live = n.tangle.Size()
		stats.Elapsed = n.cfg.Clock.Now().Sub(start)
		return stats, nil
	}

	if err := n.tangle.BeginBootstrap(m.Boundary, m.Epoch); err != nil {
		return stats, fmt.Errorf("bootstrap from %s: %w", peer, err)
	}
	defer n.tangle.EndBootstrap()

	// Journal generation matters here: records attached during bootstrap
	// sit directly on seeded boundary roots, which a generation-0 replay
	// treats as a corrupt log. Cutting a compacted (generation ≥ 1)
	// segment first means every bootstrap-attached record replays
	// through Restore, so a crash mid-join recovers cleanly.
	if log := n.journal.Load(); log != nil {
		if _, err := n.compactJournal(log); err != nil {
			return stats, fmt.Errorf("bootstrap from %s: %w", peer, err)
		}
	}

	led := n.engine.Ledger()
	for _, entry := range m.Credit {
		evs := entry.Events
		if len(evs) > maxManifestEvents {
			evs = evs[len(evs)-maxManifestEvents:]
		}
		for _, ev := range evs {
			led.RecordMalicious(entry.Addr, ev)
			stats.CreditSeeded++
		}
	}

	n.catchUp(ctx, peer)
	stats.Mode = "snapshot"
	stats.Boundary = len(m.Boundary)
	stats.Live = n.tangle.Size()
	stats.Elapsed = n.cfg.Clock.Now().Sub(start)
	return stats, nil
}

// Bootstrap joins an existing deployment: it tries each known peer for
// a snapshot-shipped join and falls back to plain SyncAll replay when
// no peer serves a usable manifest.
func (n *FullNode) Bootstrap(ctx context.Context) (BootstrapStats, error) {
	if n.cfg.Network == nil {
		return BootstrapStats{}, errors.New("bootstrap requires a network")
	}
	var lastErr error
	for _, peer := range n.cfg.Network.Peers() {
		stats, err := n.BootstrapFrom(ctx, peer)
		if err == nil {
			return stats, nil
		}
		lastErr = err
	}
	start := n.cfg.Clock.Now()
	attached := n.SyncAll(ctx)
	stats := BootstrapStats{
		Mode:    "replay",
		Live:    n.tangle.Size(),
		Elapsed: n.cfg.Clock.Now().Sub(start),
	}
	if attached == 0 && lastErr != nil {
		return stats, lastErr
	}
	return stats, nil
}
