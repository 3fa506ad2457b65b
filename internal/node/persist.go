package node

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Persistence: once EnablePersistence has opened a journal, a full node
// writes every transaction that enters its ledger to that append-only log
// and replays it on startup, so a gateway restart loses nothing (the
// durability half of the paper's §VIII "storage limitations" open
// problem). Records are queued in attach order (journalAttached), so every
// record follows its parents and whatever a power cut leaves is a prefix
// of the ledger that replays on its own (DESIGN.md §11).

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
	if log := n.journal.Load(); log != nil {
		return 0, fmt.Errorf("persistence already enabled at %s", log.Path())
	}

	// Admission holds while the journal replays (Submit and
	// admitGossipBatch take the read side). The gossip handler has been
	// live since NewFull, and a relayed batch racing the replay is at best
	// repeated work — its parents are mostly still on disk, so it parks as
	// orphans and pulls from peers the ledger this call is reading — and at
	// worst attaches a copy of the record being replayed. A submission
	// attaching between the export below and the log's opening would be
	// acknowledged to its device and journaled nowhere.
	n.replayGate.Lock()
	defer n.replayGate.Unlock()
	// What the handler attached before this call was never offered to a
	// journal; it is journaled below, once the log is open, unless the
	// journal turns out to hold it already.
	earlyIDs, early := n.exportLedger()

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

	// Replay is strict: a generation-0 record naming a parent that is
	// neither earlier in the journal, genesis, nor in the cold index is not
	// one this node wrote in attach order. The log is foreign, damaged, or
	// from a build that queued records after the attach, and is refused,
	// untouched, with the record named — as is one whose signature or
	// structure does not check.
	replay := journalReplay{node: n, duplicates: map[hashutil.Hash]struct{}{}}
	log, err := store.OpenFSRuns(fs, path, replay.take)
	if err != nil {
		replay.join()
		coldIdx.Close()
		return 0, fmt.Errorf("enable persistence: %w", err)
	}
	var unjournaled [][]byte
	for i, enc := range early {
		if _, held := replay.duplicates[earlyIDs[i]]; !held {
			unjournaled = append(unjournaled, enc)
		}
	}
	if err := log.AppendBatch(unjournaled); err != nil {
		log.Close()
		coldIdx.Close()
		return 0, fmt.Errorf("enable persistence: journal %d transactions relayed before the log opened: %w", len(unjournaled), err)
	}
	// Re-prune the evidence window to the persisted snapshot epoch:
	// replay re-observes every journaled list, and without this a
	// restart would resurrect versions the pre-crash node had already
	// pruned — the window must be a function of durable state, not of
	// restart count, for its memory bound to hold across reboots.
	if epoch := coldIdx.Epoch(); !epoch.IsZero() {
		n.registry.PruneVersions(epoch, evidenceMinVersions)
	}
	log.Observe(n.observeJournal)
	n.coldIdx.Store(coldIdx)
	n.journal.Store(log)
	return log.Len(), nil
}

// JournalHealthy reports the journal's state: true when persistence is
// enabled, the log is open, and no write or sync has failed. A node
// with a poisoned journal keeps serving reads but must be restarted
// (re-replaying the durable prefix) before its journal can be trusted
// again — the Supervisor's watchdog does exactly that.
func (n *FullNode) JournalHealthy() bool {
	log := n.journal.Load()
	return log != nil && log.Healthy()
}

// JournalError returns the sticky I/O error that poisoned the journal
// (nil while healthy or memory-only).
func (n *FullNode) JournalError() error {
	log := n.journal.Load()
	if log == nil {
		return nil
	}
	return log.Err()
}

// JournalStats returns the journal's recovery stats and current
// generation; ok is false on a memory-only node.
func (n *FullNode) JournalStats() (stats store.RecoveryStats, generation uint64, ok bool) {
	log := n.journal.Load()
	if log == nil {
		return store.RecoveryStats{}, 0, false
	}
	return log.Stats(), log.Generation(), true
}

// ClosePersistence flushes what is queued for the journal — including
// relayed records no handler waited for — and closes it and the cold
// index.
func (n *FullNode) ClosePersistence() error {
	log, idx := n.journal.Swap(nil), n.coldIdx.Swap(nil)
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

// journalReplay takes the journal from store.OpenFSRuns a run at a time
// and works one run behind the reader: while the signatures of the run
// just read are settled across the verification pool (replay holds
// replayGate, the gateway is down, nothing else wants the cores), the run
// before it — its verdicts in — goes through the commit tail in journal
// order on the reader's goroutine. Recovery then takes about the longer of
// read + commit and verify ÷ cores, not their sum on one core. What it
// refuses, and why, is what a record-at-a-time replay refuses: records
// are judged in journal order, and the first one that fails — its own
// checks or its attach — ends the replay with that record named.
type journalReplay struct {
	node *FullNode
	// duplicates are the records the ledger already held (relayed before
	// the log opened): the journal has them, so they are not appended again.
	duplicates map[hashutil.Hash]struct{}

	held     []inflight   // the run being verified
	verdicts chan []error // receives held's verdicts, once
	spare    []inflight   // the run committed last, reused for the next read
}

// take is the store's callback: start on run, then commit the one held.
// The empty run that ends the journal starts nothing and commits the last.
// The store reads each record into bytes of its own, so a run's views are
// the ledger's from here on; each is filed with this gateway's region, as
// a local submission is (the journal does not record shards).
func (r *journalReplay) take(run []txn.View, gen uint64) error {
	held, verdicts := r.held, r.verdicts
	r.held, r.verdicts = nil, nil
	if len(run) > 0 {
		recs := r.spare
		if cap(recs) < len(run) {
			recs = make([]inflight, len(run))
		}
		recs = recs[:len(run)]
		for i, v := range run {
			recs[i] = newInflight(v, hashutil.Hash{}, r.node.cfg.ShardID)
		}
		// Identified and gated beside the commit of the run before, so the
		// hashing, like the signatures, is off the reader's goroutine.
		r.held, r.verdicts = recs, make(chan []error, 1)
		go func(out chan<- []error) {
			for i := range recs {
				recs[i].id = hashutil.Sum(recs[i].Bytes())
			}
			// The journal edge demands no issuer rule and no proof of work
			// (see replayTransaction).
			out <- r.node.gate(recs, edge{}, time.Time{})
		}(r.verdicts)
	}
	if len(held) == 0 {
		return nil
	}
	err := r.commit(held, <-verdicts, gen)
	r.spare = held
	return err
}

// join waits out the verification a replay that ended early left running.
func (r *journalReplay) join() {
	if r.verdicts != nil {
		<-r.verdicts
	}
}

// commit re-admits one verified run in journal order.
func (r *journalReplay) commit(run []inflight, verdicts []error, gen uint64) error {
	for i, rec := range run {
		if verdicts != nil && verdicts[i] != nil {
			return fmt.Errorf("journal record %s is invalid: %w", rec.id.Short(), verdicts[i])
		}
		err := r.node.replayTransaction(rec, gen)
		switch {
		case err == nil:
		case errors.Is(err, tangle.ErrDuplicate):
			r.duplicates[rec.id] = struct{}{}
		case gen == 0 && errors.Is(err, tangle.ErrUnknownParent):
			return fmt.Errorf("journal record %s precedes its parent or has none here "+
				"(a foreign or damaged log, or one written before journal order was attach order; "+
				"move it aside and let the node sync from its peers): %w", rec.id.Short(), err)
		default:
			return fmt.Errorf("journal record %s: %w", rec.id.Short(), err)
		}
	}
	return nil
}

// replayTransaction re-admits a verified journaled transaction at startup
// through the commit tail live admission uses. Replay's own is what
// surrounds it: no rate limiter, and no PoW check, because the transaction
// met the difficulty demanded *at its original admission*, which the
// credit state seen during replay cannot reconstruct exactly, and the log
// is local, already-trusted state; nothing counted as Accepted; an attach
// that restores on a snapshot boundary. A record the ledger already holds
// returns tangle.ErrDuplicate with nothing changed.
//
// The tail runs as of the record's own timestamp, so hyperbolic decay
// continues from the original admission. Quality punishments re-derive
// from the replayed data stream (the validator's per-device history
// rebuilds in log order) and double-spend punishments re-fire through the
// tangle's conflict detector; lazy-tip events may not (parent ages are a
// property of the original arrival timing).
func (n *FullNode) replayTransaction(rec inflight, generation uint64) error {
	restoreOnBoundary := func(v txn.View, id hashutil.Hash, shard uint32) (tangle.Info, error) {
		info, err := n.tangle.AttachShard(v, id, shard)
		if errors.Is(err, tangle.ErrSnapshottedParent) ||
			(generation > 0 && errors.Is(err, tangle.ErrUnknownParent)) {
			// A parent this node's own cold index lists was folded away
			// before the crash, whatever the segment (generation 0 when the
			// crash fell inside Compact, after the snapshot and before the
			// journal rewrite). A parent merely absent is a boundary only
			// in a compacted segment, which loses only its tail. Restore
			// re-creates the boundary.
			info, err = n.tangle.RestoreShard(v, id, shard)
		}
		return info, err
	}
	_, err := n.commit(rec, rec.Timestamp(), restoreOnBoundary)
	if errors.Is(err, errListInvalid) {
		return nil // on the ledger before the crash, and on it again
	}
	return err
}

// Compact bounds the node's memory and, on a journaled node, its disk:
// it snapshots old confirmed transactions out of the tangle, prunes the
// evidence window and the credit ledger's transaction records
// (malicious-event records are kept forever — punishment "cannot be
// eliminated"), and rewrites the journal to what the ledger still holds.
// It returns the number of tangle vertices dropped and the record count
// of the rewritten journal (0 on a memory-only node).
//
// The history kept is keep, raised to the credit window ΔT: a
// transaction younger than ΔT still counts toward CrP, and its evidence
// must stay resident beside it. The cutoff is aligned down to a grid of
// half that window (compactWindow), so every node holding the same ledger
// and compacting with the same keep inside one grid step cuts at the
// same boundary and serves the same snapshot manifest; resident history
// lies between the window and the window plus one grid step.
func (n *FullNode) Compact(keep time.Duration) (dropped, records int, err error) {
	now := n.cfg.Clock.Now()
	window := n.compactWindow(keep)
	cutoff := now.Add(-window).Truncate(window / 2)
	dropped = n.tangle.SnapshotBefore(cutoff)
	n.engine.Ledger().Prune(now, keep)
	// The evidence window prunes on the tangle's cutoff: list versions
	// older than it can only be evidence for transactions the snapshot
	// already folded away. It is also what makes the window
	// reconstructible — replay re-observes the journal's lists and
	// re-prunes to the persisted epoch, landing on the identical set.
	n.registry.PruneVersions(cutoff, evidenceMinVersions)
	if log := n.journal.Load(); log != nil {
		records, err = n.compactJournal(log)
	}
	return dropped, records, err
}

// compactWindow is the history Compact(keep) keeps: keep raised to the
// credit window ΔT. Half of it is the grid step the cutoff is aligned to
// and the period the supervisor compacts on: the cutoff moves only once
// per step, so compacting more often prunes nothing more.
func (n *FullNode) compactWindow(keep time.Duration) time.Duration {
	return max(keep, n.engine.Ledger().Params().DeltaT)
}

// evidenceMinVersions is the floor PruneVersions keeps regardless of
// age: the current list plus its predecessor, so a verdict straddling
// the newest revision never hits a gap.
const evidenceMinVersions = 2

// compactJournal rewrites the journal to exactly the tangle's current
// contents (write-temp/fsync/atomic-rename; see store.Compact), so the
// on-disk log shrinks with the in-memory state and replay does not
// re-admit vertices the snapshot already folded away. Returns the record
// count of the new segment.
func (n *FullNode) compactJournal(log *store.Log) (records int, err error) {
	// Exported inside the log's I/O exclusion: a reading flushed and
	// acknowledged between an earlier export and the rewrite would sit in
	// the old segment only, and the rename would drop it.
	err = log.Compact(func() [][]byte {
		_, encodings := n.exportLedger()
		records = len(encodings)
		return encodings
	})
	if err != nil {
		return 0, fmt.Errorf("compact journal: %w", err)
	}
	return records, nil
}

// exportLedger returns what a journal of the whole ledger holds: the IDs
// and the ledger's own canonical encodings (shared, read-only) of every
// attached transaction in attach order but genesis, which every node
// derives from configuration and replay would reject as a duplicate root.
func (n *FullNode) exportLedger() (ids []hashutil.Hash, encodings [][]byte) {
	all, encs := n.tangle.EncodedRange(0, math.MaxInt)
	genesis := n.tangle.Genesis()
	ids, encodings = all[:0], encs[:0]
	for i, id := range all {
		if id != genesis[0] && id != genesis[1] {
			ids, encodings = append(ids, id), append(encodings, encs[i])
		}
	}
	return ids, encodings
}

// maxUnsyncedRelay bounds how many records the relay edge lets sit in the
// journal queue without a flush behind them — what a power cut costs
// this node in re-syncing, and what a stalled disk pins in memory. One
// sync page: gossip batches ride well below it, while a catch-up sync
// paging faster than the disk flushes waits for its own barrier from the
// second page on, as every relay admission did before.
const maxUnsyncedRelay = syncPageSize

// journalAttached queues one attached transaction for the journal: the
// canonical encoding the ledger keeps, as the attach announced it, under
// its attach sequence, which is all the log acknowledges it by. It is the
// only call that queues a record, beside the batch EnablePersistenceFS
// writes for what the handler attached before the log existed.
// onTangleEvent is its only caller — the tangle announces attaches
// serialized, in ledger order, before the Attach that caused them returns
// — so record order is attach order whichever edge the transaction came
// in by, and the numbers grow as the log requires. Nothing is queued while
// no journal is open (memory-only, or a replay of records the log holds).
//
// Journal failures must not fail admission (the ledger is already
// updated) and do not stop the broadcast; the log reports each record's
// verdict to observeJournal, waited for or not, so operators notice a
// dying disk, and the poisoned log turns JournalHealthy false.
func (n *FullNode) journalAttached(seq uint64, enc []byte) {
	if log := n.journal.Load(); log != nil {
		_ = log.Enqueue(enc, seq) // a refusal reaches observeJournal
	}
}

// observeJournal is the journal's observer: one JournalLatency sample per
// record, and one JournalErrors count per record that did not become
// durable.
func (n *FullNode) observeJournal(wait time.Duration, err error) {
	if err != nil {
		n.counters.JournalErrors.Inc()
	}
	n.pipeline.JournalLatency.Observe(wait)
}

// awaitJournal blocks until the flush covering the record with attach
// sequence seq — not a later record's — has returned, whatever its
// verdict; not at all when no more than backlog records are waiting for a
// flush. The submission edge promised durability and waits whatever the
// backlog (0), after it has queued the fan-out. The relay edge did not: its
// acknowledgement means "verified and attached here", so admitGossipBatch
// and retryParked return with their records queued, letting the transport
// hand over the pair's next batch while the fsync runs, and wait — for the
// newest record they attached — only past maxUnsyncedRelay.
func (n *FullNode) awaitJournal(seq uint64, backlog int) {
	if log := n.journal.Load(); log != nil && log.Unflushed() > backlog {
		_ = log.Await(seq)
	}
}
