package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Persistence: a full node configured with PersistPath journals every
// admitted transaction to an append-only log and replays it on startup,
// so a gateway restart loses nothing (the durability half of the
// paper's §VIII "storage limitations" open problem).

// ErrNotPersistent reports persistence operations on a memory-only node.
var ErrNotPersistent = errors.New("node has no persistence configured")

// EnablePersistence opens (or creates) the transaction log at path on
// the real filesystem, replays its records into the node's ledger, and
// journals every subsequently admitted transaction. Call once, before
// serving traffic.
func (n *FullNode) EnablePersistence(path string) (replayed int, err error) {
	return n.EnablePersistenceFS(chaos.OS(), path)
}

// EnablePersistenceFS is EnablePersistence against an arbitrary
// filesystem — the seam the chaos torture and soak suites inject disk
// faults through.
func (n *FullNode) EnablePersistenceFS(fs chaos.FS, path string) (replayed int, err error) {
	n.pendingMu.Lock()
	if n.journal != nil {
		n.pendingMu.Unlock()
		return 0, fmt.Errorf("persistence already enabled at %s", n.journal.Path())
	}
	n.pendingMu.Unlock()

	// Relay admission holds while the journal replays (admitGossipBatch
	// takes the read side). The gossip handler has been live since
	// NewFull, and a relayed batch racing the replay is at best repeated
	// work — its parents are mostly still on disk, so it parks as orphans
	// and pulls from peers the ledger this call is reading — and at worst
	// attaches a copy of the record being replayed.
	n.replayGate.Lock()
	defer n.replayGate.Unlock()
	// What the handler attached before this call was never offered to a
	// journal; it is journaled below, once the log is open, unless the
	// journal turns out to hold it already.
	var early []*txn.Transaction
	for _, t := range n.tangle.Export() {
		if t.Kind != txn.KindGenesis {
			early = append(early, t)
		}
	}

	// The cold index opens BEFORE the journal replays: a compacted
	// (generation ≥ 1) segment replays boundary records through Restore,
	// whose duplicate and pruned-parent checks consult the persisted
	// cold membership — it has to be installed for them to keep their
	// exact pre-restart semantics.
	coldIdx, err := store.OpenColdIndex(fs, path+".cold")
	if err != nil {
		return 0, fmt.Errorf("enable persistence: open cold index: %w", err)
	}
	if err := n.tangle.SetColdStore(coldIdx); err != nil {
		coldIdx.Close()
		return 0, fmt.Errorf("enable persistence: %w", err)
	}
	n.tangle.RestoreColdEpoch(coldIdx.Epoch())

	// Admission journals after attach, outside any shared lock, so with
	// concurrent admissions a child can reach the journal just before
	// its parent (journal order is not attach order). Replay therefore
	// stashes generation-0 unknown-parent records instead of aborting
	// and retries the stash to a fixpoint after the scan.
	var (
		deferredOrphans []*txn.Transaction
		resolved        int                            // records that attached
		duplicates      = map[hashutil.Hash]struct{}{} // records the ledger already held
	)
	replay := func(t *txn.Transaction, gen uint64) error {
		err := n.replayTransaction(t, gen)
		switch {
		case err == nil:
			resolved++
		case errors.Is(err, tangle.ErrDuplicate):
			duplicates[t.ID()] = struct{}{}
			return nil
		}
		return err
	}
	log, err := store.OpenFSGen(fs, path, func(t *txn.Transaction, gen uint64) error {
		err := replay(t, gen)
		if gen == 0 && errors.Is(err, tangle.ErrUnknownParent) {
			deferredOrphans = append(deferredOrphans, t)
			return nil
		}
		return err
	})
	if err != nil {
		coldIdx.Close()
		return 0, fmt.Errorf("enable persistence: %w", err)
	}
	fail := func(err error) (int, error) {
		log.Close()
		coldIdx.Close()
		return 0, fmt.Errorf("enable persistence: %w", err)
	}
	for progress := true; progress && len(deferredOrphans) > 0; {
		progress = false
		rest := deferredOrphans[:0]
		for _, t := range deferredOrphans {
			switch err := replay(t, 0); {
			case err == nil:
				progress = true
			case errors.Is(err, tangle.ErrUnknownParent):
				rest = append(rest, t)
			default:
				return fail(err)
			}
		}
		deferredOrphans = rest
	}
	if len(deferredOrphans) > 0 {
		// A journal of which nothing resolves was written under another
		// genesis: a foreign log. One of which the rest did is this
		// node's own, cut off by a crash between a child's flush and its
		// parent's (the parent was attached, and approvable, before its
		// own record was queued). The child is an orphan like any a peer
		// relays ahead of its parent: it parks, the repair lane pulls the
		// parent from a peer, and refusing to boot would repair nothing.
		if resolved+len(duplicates) == 0 {
			return fail(fmt.Errorf("%d journaled records never resolve a parent: %w",
				len(deferredOrphans), tangle.ErrUnknownParent))
		}
		now := n.cfg.Clock.Now()
		ids := make([]hashutil.Hash, len(deferredOrphans))
		for i, t := range deferredOrphans {
			n.parkOrphan(context.Background(), "", t, now, n.cfg.ShardID)
			ids[i] = t.ID()
		}
		n.repairOrphans("", ids)
	}
	var unjournaled []*txn.Transaction
	for _, t := range early {
		if _, held := duplicates[t.ID()]; !held {
			unjournaled = append(unjournaled, t)
		}
	}
	if err := log.AppendBatch(unjournaled); err != nil {
		return fail(fmt.Errorf("journal %d transactions relayed before the log opened: %w", len(unjournaled), err))
	}
	// Re-prune the evidence window to the persisted snapshot epoch:
	// replay re-observes every journaled list, and without this a
	// restart would resurrect versions the pre-crash node had already
	// pruned — the window must be a function of durable state, not of
	// restart count, for its memory bound to hold across reboots.
	if epoch := coldIdx.Epoch(); !epoch.IsZero() {
		n.registry.PruneVersions(epoch, evidenceMinVersions)
	}
	log.SetBatchConfig(store.BatchConfig{
		MaxBatch: n.cfg.JournalMaxBatch,
		MaxDelay: n.cfg.JournalMaxDelay,
	})
	n.pendingMu.Lock()
	n.journal = log
	n.coldIdx = coldIdx
	n.pendingMu.Unlock()
	return log.Len(), nil
}

// journalLog returns the open journal, nil on a memory-only node.
func (n *FullNode) journalLog() *store.Log {
	n.pendingMu.Lock()
	defer n.pendingMu.Unlock()
	return n.journal
}

// JournalHealthy reports the journal's state: true when persistence is
// enabled, the log is open, and no write or sync has failed. A node
// with a poisoned journal keeps serving reads but must be restarted
// (re-replaying the durable prefix) before its journal can be trusted
// again — the Supervisor's watchdog does exactly that.
func (n *FullNode) JournalHealthy() bool {
	log := n.journalLog()
	return log != nil && log.Healthy()
}

// JournalError returns the sticky I/O error that poisoned the journal
// (nil while healthy or memory-only).
func (n *FullNode) JournalError() error {
	log := n.journalLog()
	if log == nil {
		return nil
	}
	return log.Err()
}

// JournalStats returns the journal's recovery stats and current
// generation; ok is false on a memory-only node.
func (n *FullNode) JournalStats() (stats store.RecoveryStats, generation uint64, ok bool) {
	log := n.journalLog()
	if log == nil {
		return store.RecoveryStats{}, 0, false
	}
	return log.Stats(), log.Generation(), true
}

// ClosePersistence flushes what is queued for the journal — including
// relayed records no handler waited for — and closes it and the cold
// index.
func (n *FullNode) ClosePersistence() error {
	n.pendingMu.Lock()
	log := n.journal
	idx := n.coldIdx
	n.journal = nil
	n.coldIdx = nil
	n.pendingMu.Unlock()
	if log == nil {
		return ErrNotPersistent
	}
	err := log.Close()
	if idx != nil {
		if cerr := idx.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// replayTransaction re-admits a journaled transaction at startup. It
// runs the same structural pipeline as live admission but skips the
// rate limiter and the PoW check: the transaction met the difficulty
// demanded *at its original admission*, which the credit state seen
// during replay cannot reconstruct exactly — and the log is local,
// already-trusted state, not an untrusted submission. A record the
// ledger already holds returns tangle.ErrDuplicate with nothing changed;
// the caller skips it.
func (n *FullNode) replayTransaction(t *txn.Transaction, generation uint64) error {
	if err := t.VerifyBasic(); err != nil {
		return fmt.Errorf("journaled transaction invalid: %w", err)
	}
	if t.Kind == txn.KindTransfer {
		n.pendingMu.Lock()
		n.pending[t.ID()] = t.Clone()
		n.pendingMu.Unlock()
	}
	// The journal does not record shards; re-derive the namespace from
	// the kind and this gateway's own region, exactly as live admission
	// of a local submission would.
	shard := shardFor(t.Kind, n.cfg.ShardID)
	info, err := n.tangle.AttachShard(t, shard)
	if errors.Is(err, tangle.ErrSnapshottedParent) ||
		(generation > 0 && errors.Is(err, tangle.ErrUnknownParent)) {
		// The record sits on a snapshot boundary and Restore re-creates
		// the boundary shape. A parent this node's own cold index lists
		// was folded away before the crash, whatever the segment — a
		// generation-0 journal sees that when the crash fell between
		// Compact and CompactJournal. A parent merely absent is a
		// boundary only in a compacted segment (generation > 0), which
		// is written in attachment order and loses only its tail; a
		// generation-0 segment was never compacted, so there it is a
		// child journaled ahead of its parent or an orphan, and
		// EnablePersistenceFS decides which.
		info, err = n.tangle.RestoreShard(t, shard)
	}
	if errors.Is(err, tangle.ErrDuplicate) {
		// The ledger holds it already: journaled twice, relayed to the
		// live handler before this record was reached, or folded into
		// the cold set by a Compact the journal never caught up with.
		// The tangle's verdict, taken under its own lock, is the only
		// check — a look before the attach is a window. The first copy
		// did the accounting, and its pending-settlement entry is the
		// identical clone stored above.
		return err
	}
	if err != nil {
		n.pendingMu.Lock()
		delete(n.pending, t.ID())
		n.pendingMu.Unlock()
		return err
	}
	n.engine.Ledger().RecordTransaction(t.Sender(), info.ID, 1, t.Timestamp)
	if t.Kind == txn.KindAuthorization {
		// Observe, not Apply: stale lists are fine during replay — the
		// newest wins the live view — and every valid list records into
		// the evidence window so replayed nodes take the same admission
		// verdicts as the nodes that saw the lists live.
		_, _ = n.registry.Observe(t, t.Timestamp)
	}
	// Quality punishments re-derive deterministically from the replayed
	// data stream (the validator's per-device history rebuilds in log
	// order), timestamped at the original admission so hyperbolic decay
	// continues from where it was. Double-spend punishments likewise
	// re-fire through the tangle's conflict detector; lazy-tip events
	// are the one class that may not re-derive (parent ages are a
	// property of the original arrival timing).
	n.checkQuality(t, info.ID, t.Timestamp)
	n.drainDeferred()
	return nil
}

// Compact bounds the node's memory: it snapshots old confirmed
// transactions out of the tangle and prunes the credit ledger's
// transaction records older than keep (malicious-event records are kept
// forever — punishment "cannot be eliminated"). It returns the number
// of tangle vertices and credit records dropped. keep must comfortably
// exceed both the credit window ΔT and the confirmation horizon;
// values below ΔT are raised by the credit ledger itself.
func (n *FullNode) Compact(keep time.Duration) (tangleDropped, creditDropped int) {
	now := n.cfg.Clock.Now()
	// The tangle must not prune inside the credit window: a transaction
	// record younger than ΔT still contributes to CrP, and RescanCredit
	// parity requires the evidence to stay resident. The credit ledger
	// clamps itself; mirror that for the tangle cutoff.
	if dt := n.engine.Ledger().Params().DeltaT; keep < dt {
		keep = dt
	}
	tangleDropped = n.tangle.SnapshotEpoch(now, keep, n.cfg.SnapshotEpoch)
	creditDropped = n.engine.Ledger().Prune(now, keep)
	// The evidence window prunes on the SAME quantized cutoff as the
	// tangle snapshot: list versions older than the epoch boundary can
	// only be evidence for transactions the snapshot already folded
	// away. Keeping the grids aligned is also what makes the window
	// reconstructible — replay re-observes the journal's lists and
	// re-prunes to the persisted epoch, landing on the identical set.
	cutoff := now.Add(-keep)
	if n.cfg.SnapshotEpoch > 0 {
		cutoff = cutoff.Truncate(n.cfg.SnapshotEpoch)
	}
	n.registry.PruneVersions(cutoff, evidenceMinVersions)
	return tangleDropped, creditDropped
}

// evidenceMinVersions is the floor PruneVersions keeps regardless of
// age: the current list plus its predecessor, so a verdict straddling
// the newest revision never hits a gap.
const evidenceMinVersions = 2

// CompactJournal rewrites the journal to exactly the tangle's current
// contents (write-temp/fsync/atomic-rename; see store.Compact). Run it
// after Compact so the on-disk log shrinks with the in-memory state —
// otherwise the journal grows forever and replay re-admits vertices the
// snapshot already folded away. Genesis is skipped: every node derives
// it from configuration, and replay would reject it as a duplicate
// root. Returns the record count of the new segment.
func (n *FullNode) CompactJournal() (records int, err error) {
	log := n.journalLog()
	if log == nil {
		return 0, ErrNotPersistent
	}
	all := n.tangle.Export()
	txs := all[:0]
	for _, t := range all {
		if t.Kind != txn.KindGenesis {
			txs = append(txs, t)
		}
	}
	if err := log.Compact(txs); err != nil {
		return 0, fmt.Errorf("compact journal: %w", err)
	}
	return len(txs), nil
}

// maxUnsyncedRelay bounds how many records the relay edge lets sit in the
// journal queue without a flush behind them — what a power cut costs
// this node in re-syncing, and what a stalled disk pins in memory. One
// sync page: gossip batches ride well below it, while a catch-up sync
// paging faster than the disk flushes waits for its own barrier from the
// second page on, as every relay admission did before.
const maxUnsyncedRelay = syncPageSize

// synced is the barrier of a request that had nothing to wait for.
var synced = func() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// journalEnqueue queues admitted transactions for the journal as one
// request — in call order, one write, one fsync, never split — and
// returns its barrier: a channel closed once the fsync covering the
// records has returned, or once it is known that none will. It does not
// wait itself; the submission edge waits after it has queued the
// fan-out, the relay edge mostly not at all (journalRelayed).
//
// Journal failures must not fail admission (the ledger is already
// updated) and do not stop the broadcast; the committer feeds them to
// the JournalErrors counter, waited for or not, so operators notice a
// dying disk, and the poisoned log turns JournalHealthy false.
func (n *FullNode) journalEnqueue(txs []*txn.Transaction) (barrier <-chan struct{}) {
	log := n.journalLog()
	if log == nil || len(txs) == 0 {
		return synced
	}
	done := make(chan struct{})
	start := time.Now()
	log.Enqueue(txs, func(err error) {
		if err != nil {
			n.counters.JournalErrors.Inc()
		}
		n.pipeline.JournalLatency.Observe(time.Since(start))
		close(done)
	})
	return done
}

// journalRelayed journals a relay-admitted batch; called at the end of
// admitGossipBatch and retryParked. A relay's acknowledgement means
// "verified and attached here", not "durable here": the batch is queued
// and the handler returns, so the transport can hand over the pair's
// next batch while this one's fsync runs. Only when more than
// maxUnsyncedRelay records would be awaiting a flush does the handler
// wait for its own barrier, which is back-pressure on the sender.
func (n *FullNode) journalRelayed(txs []*txn.Transaction) {
	log := n.journalLog()
	wait := log != nil && log.Unsynced()+len(txs) > maxUnsyncedRelay
	if barrier := n.journalEnqueue(txs); wait {
		<-barrier
	}
}
