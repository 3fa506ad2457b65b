package node

import (
	"context"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
)

// Quarantine-and-repair lane for relayed transactions this node lacks
// something for (DESIGN.md §9, §15): a sync or gossip transaction whose
// parent has not attached, or whose evidence scan hits a list-sequence
// gap — an authorization list is a ledger transaction like any other —
// parks here instead of being dropped. Dropping it would orphan its
// descendants, which is exactly the interleaving behind the old
// revocation-storm flake. Entries are retried whenever something attaches
// (kickQuarantine), pulled for in the background when that does not
// happen (repairOrphans), and expire on a per-entry TTL; the map is
// capacity-bounded with FIFO eviction, so a hostile flood of
// unresolvable transactions costs O(cap) memory and nothing more.

const (
	// quarantineCap bounds parked entries.
	quarantineCap = 256
	// quarantineTTL is how long an entry may wait for what it lacks
	// before being dropped (sync re-offers it later if it ever
	// resolves).
	quarantineTTL = 30 * time.Second
)

// quarEntry is one parked transaction.
type quarEntry struct {
	// rec is the transaction as the gate filed it, its namespace
	// included, so a later kick attaches it into the same shard its relay
	// targeted.
	rec inflight
	// deadline is the entry's TTL expiry.
	deadline time.Time
}

// quarantine is the bounded parking lot. Safe for concurrent use.
type quarantine struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	entries map[hashutil.Hash]*quarEntry
	order   []hashutil.Hash // FIFO insertion order for capacity eviction
}

func newQuarantine(capacity int, ttl time.Duration) *quarantine {
	return &quarantine{
		cap:     capacity,
		ttl:     ttl,
		entries: make(map[hashutil.Hash]*quarEntry, capacity),
	}
}

// park inserts (or refreshes) an entry. fresh reports whether the
// transaction was not already parked; evicted is how many oldest
// entries were displaced to stay under capacity.
func (q *quarantine) park(rec inflight, now time.Time) (fresh bool, evicted int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if e, ok := q.entries[rec.id]; ok {
		// Already parked: refresh the namespace the latest relay declared,
		// but keep the original deadline — re-offers must not extend a
		// stay forever.
		e.rec.shard = rec.shard
		return false, 0
	}
	return true, q.insertLocked(&quarEntry{rec: rec, deadline: now.Add(q.ttl)})
}

// repark reinserts a drained entry, preserving its original deadline.
func (q *quarantine) repark(e *quarEntry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.entries[e.rec.id]; !ok {
		q.insertLocked(e)
	}
}

// insertLocked files e last in FIFO order and evicts the oldest entries
// past capacity, returning how many.
func (q *quarantine) insertLocked(e *quarEntry) (evicted int) {
	q.entries[e.rec.id] = e
	q.order = append(q.order, e.rec.id)
	for len(q.entries) > q.cap {
		victim := q.order[0]
		q.order = q.order[1:]
		if _, ok := q.entries[victim]; ok {
			delete(q.entries, victim)
			evicted++
		}
	}
	return evicted
}

// drain removes and returns every parked entry in FIFO order.
func (q *quarantine) drain() []*quarEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.entries) == 0 {
		return nil
	}
	out := make([]*quarEntry, 0, len(q.entries))
	for _, id := range q.order {
		if e, ok := q.entries[id]; ok {
			out = append(out, e)
		}
	}
	clear(q.entries) // kept: a kick with one parked orphan must not cost a capacity-sized map
	q.order = q.order[:0]
	return out
}

// orphans returns the IDs of every parked entry: each waits for a
// transaction this node lacks, a parent or an authorization list.
func (q *quarantine) orphans() map[hashutil.Hash]struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[hashutil.Hash]struct{}, len(q.entries))
	for id := range q.entries {
		out[id] = struct{}{}
	}
	return out
}

// size reports the number of parked entries.
func (q *quarantine) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// orphanRepairGrace is how long a parked orphan waits before the node
// pulls for what it lacks. Peers keep up to a window of batches in
// flight, so a child overtaking its parent — or a reading overtaking the
// list that authorizes it — by a batch is routine and repairs itself
// within a link round trip when the missing one lands; only one still
// missing after the grace — long against any round trip this transport
// tolerates well, short against the quarantine TTL — was really lost (a
// peer-queue drop, a send failure) and is worth a sync.
const orphanRepairGrace = 250 * time.Millisecond

// orphanRepair is the state of the background repair lane.
type orphanRepair struct {
	ctx    context.Context // cancelled by Close
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	running bool
	// reported are the orphans handlers have parked since the running
	// pass began (its own it took with it); from is the peer that
	// relayed the latest of them.
	reported map[hashutil.Hash]struct{}
	from     string
}

// repairOrphans reports orphans a relayed batch has just parked — for a
// parent or for an authorization list — to the background repair lane and
// returns; the handler never waits for a repair. The lane, single-flight
// per node, works in passes: it takes what has been reported, waits out
// the grace, and if one of those is still parked pulls the peers' ledgers
// — the relaying peer first when it is one this node can dial, which over
// TCP it is not (an inbound connection's remote address is an ephemeral
// port), then every listed peer — until none of them is. Orphans reported
// during a pass wait for the next: each sits out a full grace before it
// costs a sync.
func (n *FullNode) repairOrphans(from string, orphans []hashutil.Hash) {
	r := &n.repair
	r.mu.Lock()
	if r.reported == nil {
		r.reported = make(map[hashutil.Hash]struct{}, len(orphans))
	}
	for _, id := range orphans {
		r.reported[id] = struct{}{}
	}
	r.from = from
	if r.running || r.ctx.Err() != nil {
		r.mu.Unlock()
		return
	}
	r.running = true
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		for {
			r.mu.Lock()
			waiting, from := r.reported, r.from
			r.reported = nil
			if len(waiting) == 0 {
				r.running = false
				r.mu.Unlock()
				return
			}
			r.mu.Unlock()

			grace := time.NewTimer(orphanRepairGrace)
			select {
			case <-grace.C:
			case <-r.ctx.Done():
				grace.Stop()
				return
			}
			stillWaiting := func() bool {
				for id := range n.settledOrphans() {
					if _, was := waiting[id]; was {
						return true
					}
				}
				return false
			}
			if !stillWaiting() {
				continue
			}
			n.pipeline.OrphanSyncs.Inc()
			for _, peer := range n.repairPeers(from) {
				n.syncFrom(r.ctx, n.cfg.Network, peer, wholeLedger)
				if !stillWaiting() || r.ctx.Err() != nil {
					break
				}
			}
		}
	}()
}

// settledOrphans retries everything parked — waiting out a kick that is
// running, so that it never sees the quarantine half drained, and going
// round again for one requested meanwhile, as kickQuarantine does — and
// returns the orphans still parked after that.
func (n *FullNode) settledOrphans() map[hashutil.Hash]struct{} {
	for {
		n.kickMu.Lock()
		n.kickWanted.Store(false)
		n.retryParked(n.cfg.Clock.Now())
		orphans := n.quar.orphans()
		n.kickMu.Unlock()
		if !n.kickWanted.Load() {
			return orphans
		}
	}
}

// repairPeers orders the peers a repair pulls from: from first when it
// is a listed peer, then the rest.
func (n *FullNode) repairPeers(from string) []string {
	if n.cfg.Network == nil {
		return nil
	}
	peers := n.cfg.Network.Peers()
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p == from {
			out = append(out, p)
		}
	}
	for _, p := range peers {
		if p != from {
			out = append(out, p)
		}
	}
	return out
}
