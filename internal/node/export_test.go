package node

import (
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Constants the external tests pin behaviour against.
const (
	SendWindow        = sendWindow
	OrphanRepairGrace = orphanRepairGrace
	MaxUnsyncedRelay  = maxUnsyncedRelay
	BatchVerifyChunk  = batchVerifyChunk
)

// UnflushedJournal counts the records queued for the journal whose flush
// has not returned.
func (n *FullNode) UnflushedJournal() int {
	if log := n.journal.Load(); log != nil {
		return log.Unflushed()
	}
	return 0
}

// SetQuarantineBounds replaces the node's (empty) quarantine with one of
// the given bounds, for the test that fills it.
func (n *FullNode) SetQuarantineBounds(capacity int, ttl time.Duration) {
	n.quar = newQuarantine(capacity, ttl)
}

// SetBroadcastBounds replaces the node's fan-out, before anything was
// submitted to it, with one whose peer queues hold peerQueue transactions
// and whose batches hold at most batch — for the tests that saturate or
// shape them. Zero keeps that bound.
func (n *FullNode) SetBroadcastBounds(peerQueue, batch int) {
	n.bcast.close()
	b := newBroadcaster(n)
	if peerQueue > 0 {
		b.peerQueue = peerQueue
	}
	if batch > 0 {
		b.maxBatch = batch
	}
	n.bcast = b
}

// ReplayPerRecord is journal replay as it stood before it took the
// journal in runs (commit 41c52ea): one record at a time on the store's
// per-record callback, VerifyBasic and then the commit tail, on one
// goroutine. It survives here only, as the oracle the replay equivalence
// test holds the new path against.
func (n *FullNode) ReplayPerRecord(fs chaos.FS, path string) error {
	coldIdx, err := store.OpenColdIndex(fs, path+".cold")
	if err != nil {
		return err
	}
	if err := n.tangle.SetColdStore(coldIdx); err != nil {
		coldIdx.Close()
		return err
	}
	n.tangle.RestoreColdEpoch(coldIdx.Epoch())
	log, err := store.OpenFSGen(fs, path, func(v txn.View, gen uint64) error {
		if err := v.VerifyBasic(); err != nil {
			return fmt.Errorf("journaled transaction invalid: %w", err)
		}
		rec := newInflight(v, hashutil.Sum(v.Bytes()), n.cfg.ShardID)
		err := n.replayTransaction(rec, gen)
		switch {
		case errors.Is(err, tangle.ErrDuplicate):
			return nil
		case gen == 0 && errors.Is(err, tangle.ErrUnknownParent):
			return fmt.Errorf("journal record %s precedes its parent or has none here: %w", rec.id.Short(), err)
		}
		return err
	})
	if err != nil {
		coldIdx.Close()
		return err
	}
	if epoch := coldIdx.Epoch(); !epoch.IsZero() {
		n.registry.PruneVersions(epoch, evidenceMinVersions)
	}
	n.coldIdx.Store(coldIdx) // ClosePersistence closes both
	n.journal.Store(log)
	return nil
}
