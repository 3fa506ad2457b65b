package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Pulling what this node lacks from a peer (DESIGN.md §9, §14, §16). One
// pager (pull) serves every caller: a join's rounds (catchUp), an
// operator's SyncAll, backbone reconciliation of namespace 0, and the
// repair worker, which pulls for what a relayed transaction parked in the
// quarantine still lacks. A pull reports how many transactions it
// attached, and a caller that repeats pulls stops on that count.

const (
	// syncPageSize bounds the transactions one sync page carries: what
	// serving it appends under the tangle read lock.
	syncPageSize = 256
	// syncHaveWindow bounds the recent-ID advertisement in a sync
	// request: instead of shipping the entire known-ID set (O(ledger)
	// per sync), the requester advertises only its newest window, which
	// prunes the common recently-gossiped overlap from responses.
	syncHaveWindow = 512
	// maxSyncPages bounds one pull (~1M transactions).
	maxSyncPages = 4096
	// maxBootstrapRounds bounds catchUp: each round is a full paged pull,
	// repeated only while the one before attached something (dirty pages
	// re-offer across rounds).
	maxBootstrapRounds = 8
)

// recentHave writes the newest syncHaveWindow attached IDs over dst.
func (n *FullNode) recentHave(dst []hashutil.Hash) []hashutil.Hash {
	from := max(n.tangle.Size()-syncHaveWindow, 0)
	return n.tangle.AppendOrderedIDs(dst[:0], from, syncHaveWindow)
}

// serveSyncPage answers one sync request with one page. The requester's
// cursor (msg.Offset) walks this node's attachment order — the whole
// ledger's, or one namespace's when the request is scoped — so response
// size, like request size, stays constant no matter how large the ledger
// grows, and serving a sync holds the tangle read lock for one page. The
// page is the ledger's stored encodings, shared and read-only; the
// transport copies them into its frame. What the requester's Have window
// names is left out: the window is copied into pooled scratch, sorted,
// and each vertex of the page is looked up in it by binary search.
func (n *FullNode) serveSyncPage(msg gossip.Message) *gossip.Message {
	var known func(id *hashutil.Hash) bool
	if len(msg.Have) > 0 {
		window := haveWindowPool.Get().(*[]hashutil.Hash)
		defer haveWindowPool.Put(window)
		sorted := append((*window)[:0], msg.Have...)
		slices.SortFunc(sorted, hashutil.Hash.Compare)
		*window = sorted
		known = func(id *hashutil.Hash) bool {
			_, found := slices.BinarySearchFunc(sorted, *id, hashutil.Hash.Compare)
			return found
		}
	}
	total := n.tangle.Size()
	if msg.Scoped {
		total = n.tangle.ShardSize(uint32(msg.Shard))
	}
	off := int(min(msg.Offset, uint64(total)))
	var data [][]byte
	var scanned int
	if msg.Scoped {
		data, scanned = n.tangle.AppendEncodedShardRange(nil, uint32(msg.Shard), off, syncPageSize, known)
	} else {
		data, scanned = n.tangle.AppendEncodedRange(nil, off, syncPageSize, known)
	}
	return &gossip.Message{
		Type:   gossip.MsgSyncResponse,
		TxData: data,
		Offset: uint64(off + scanned),
		Total:  uint64(total),
		More:   scanned == syncPageSize,
		Shard:  msg.Shard,
		Scoped: msg.Scoped,
	}
}

// haveWindowPool holds the scratch serveSyncPage sorts Have windows in.
var haveWindowPool = sync.Pool{New: func() any { return new([]hashutil.Hash) }}

// syncScope selects what one sync exchange pages: the peer's whole
// ledger (the zero value — regional peers, bootstrap, orphan repair) or
// a single tangle namespace (backbone reconciliation of namespace 0).
type syncScope struct {
	scoped bool
	shard  uint32
}

// wholeLedger scopes a sync to everything the peer holds.
var wholeLedger = syncScope{}

// namespace scopes a sync to one tangle namespace.
func namespace(shard uint32) syncScope { return syncScope{scoped: true, shard: shard} }

// cursorID names one sync cursor: a peer and the scope paged from it, so
// the two scopes never move each other's cursor.
type cursorID struct {
	peer  string
	scope syncScope
}

// syncCursor is how far into one peer's attachment order (or one
// namespace's) this node has paged. Its mutex is the pager's turn: one
// pull at a time pages a cursor, and only it, holding the turn, reads or
// moves the position.
type syncCursor struct {
	sync.Mutex
	pos uint64
}

// pull pulls missing transactions from one peer over net, admits them in
// order, and returns how many of them attached; err is set when the peer
// did not answer a request with a sync page. The exchange is paged: each
// request carries this node's cursor into the peer's attachment order
// (the whole ledger's, or one namespace's) plus a bounded recent-ID
// window, and each response returns one page — both directions stay
// constant-size as the DAG grows. The cursor persists across calls, so a
// steady-state pull only ever pages the peer's new tail.
//
// One page is kept in flight: the cursor of page k+1 is page k's
// reply.Offset, known the moment k arrives, so k+1 is requested before k
// is admitted and the link round trip overlaps the verification and
// attach of the page before — a catch-up is paced by the slower of the
// two, not by their sum. Pages are still admitted strictly in order. The
// request's Have window is then one page stale; what it would have pruned
// arrives and is skipped as a duplicate at Contains.
//
// The pager owns what its pages are read into: two reply buffers lent to
// the transport (gossip.ReplyBuffer) — the page being admitted and the
// page in flight — and one Have window, written over for every request.
// A buffer is lent again only after admitGossipBatch has returned with
// the page it held (admission copies every transaction it keeps); the
// one lent to the exchange in flight when pull returns, cancelled or
// failed, is abandoned with the call.
func (n *FullNode) pull(ctx context.Context, net gossip.Network, peer string, scope syncScope) (attached int, err error) {
	// Data in a whole-ledger page belongs to the serving regional peer's
	// namespace, which is this node's own; a namespace page says so itself.
	hint, pages := n.cfg.ShardID, &n.pipeline.SyncPages
	if scope.scoped {
		hint = scope.shard
	}
	if net == n.cfg.Backbone {
		pages = &n.counters.BackboneSyncPages
	}
	// One pager per cursor: a second one (the background orphan repair
	// beside an operator's SyncAll, two reconcile rounds) would fetch,
	// decode and verify the same pages over again. It waits, and then
	// pages only what the first left — usually nothing.
	c, _ := n.cursors.LoadOrStore(cursorID{peer, scope}, new(syncCursor))
	cur := c.(*syncCursor)
	cur.Lock()
	defer cur.Unlock()

	type fetched struct {
		reply gossip.Message
		err   error
	}
	// fetch requests the page at cursor in the background, into the reply
	// buffer the previous page did not use; the request in flight when
	// pull returns is cancelled and waited for.
	ctx, cancel := context.WithCancel(ctx)
	var (
		inFlight chan fetched
		have     []hashutil.Hash
		bufs     [2]gossip.ReplyBuffer
		lend     = [2]context.Context{gossip.WithReplyBuffer(ctx, &bufs[0]), gossip.WithReplyBuffer(ctx, &bufs[1])}
		next     int
	)
	fetch := func(cursor uint64) {
		inFlight = make(chan fetched, 1)
		go func(ctx context.Context, out chan<- fetched) {
			have = n.recentHave(have)
			reply, err := net.Request(ctx, peer, gossip.Message{
				Type:   gossip.MsgSyncRequest,
				Have:   have,
				Offset: cursor,
				Shard:  uint64(scope.shard),
				Scoped: scope.scoped,
			})
			out <- fetched{reply, err}
		}(lend[next], inFlight)
		next ^= 1
	}
	defer func() {
		cancel()
		if inFlight != nil {
			<-inFlight
		}
	}()

	cursor := cur.pos
	clean := true
	fetch(cursor)
	for page := 0; page < maxSyncPages; page++ {
		got := <-inFlight
		inFlight = nil
		reply := got.reply
		switch {
		case got.err != nil:
			return attached, got.err
		case ctx.Err() != nil:
			return attached, ctx.Err()
		case reply.Type != gossip.MsgSyncResponse:
			return attached, fmt.Errorf("peer %s answered a sync request with %v", peer, reply.Type)
		}
		if reply.Total < cursor {
			// The peer's ledger shrank past our cursor (restart or
			// snapshot compaction): rewind and re-page. Nothing was
			// requested beyond this reply, so nothing stale is in flight.
			cursor = 0
			clean = true
			cur.pos = 0
			fetch(0)
			continue
		}
		advanced := reply.Offset > cursor
		if advanced && reply.More && page+1 < maxSyncPages {
			fetch(reply.Offset)
		}
		pages.Inc()
		ok, failed := n.admitGossipBatch(peer, reply.TxData, false, hint)
		attached += ok
		if failed > 0 {
			// The page had admissions we could not complete — usually a
			// difficulty check against a still-stale credit view, or an
			// orphan whose parent lives on another peer. The in-call
			// cursor keeps walking so the rest of this pull proceeds,
			// but the persisted cursor stays at the first dirty page:
			// the next pull re-offers it, restoring the self-healing
			// property of the old full-diff exchange at paged cost.
			clean = false
		}
		if !advanced {
			// No forward progress: a confused peer must not spin us.
			return attached, nil
		}
		cursor = reply.Offset
		if clean {
			cur.pos = cursor
		}
		if !reply.More {
			return attached, nil
		}
	}
	return attached, nil
}

// SyncAll requests missing history from every peer — used by a gateway
// joining an existing deployment — and returns how many transactions
// attached.
func (n *FullNode) SyncAll(ctx context.Context) (attached int) {
	if n.cfg.Network == nil {
		return 0
	}
	for _, peer := range n.cfg.Network.Peers() {
		got, _ := n.pull(ctx, n.cfg.Network, peer, wholeLedger) // a peer that fails is skipped: the next may hold the rest
		attached += got
	}
	return attached
}

// catchUp is a join's rounds: it pulls the peer's whole ledger again
// until a pull attaches nothing. One pull can leave dirty pages (orphans
// whose parents arrive in a later page, difficulty checks against a
// still-stale credit view); the persisted cursor re-offers them, so
// bounded repetition converges. The stop rule is what the pull attached,
// not the ledger's growth: relayed batches and repairs attach beside a
// join, and would keep it paging for every round.
func (n *FullNode) catchUp(ctx context.Context, peer string) {
	for round := 0; round < maxBootstrapRounds; round++ {
		// A failed pull ends the rounds only if it attached nothing: the
		// join reports what it reached (BootstrapStats.Live).
		if attached, _ := n.pull(ctx, n.cfg.Network, peer, wholeLedger); attached == 0 {
			return
		}
	}
}

// relayOutcome is what the relay gate did with one transaction.
type relayOutcome int

const (
	relayAttached     relayOutcome = iota
	relayDuplicate                 // the ledger holds it already
	relayOrphan                    // a parent is not attached yet: park, retry when something attaches
	relayUnresolved                // the evidence scan hit a list-sequence gap: park until the list attaches
	relayEarly                     // stamped more than maxClockSkew ahead: park until this clock catches up
	relayUnauthorized              // a Sybil: drop
	relayFailed                    // the attach refused it: drop
)

// admitRelayed is the relay edge's gate, for a verified transaction fresh
// from a peer and for one retried out of the quarantine alike. The
// authoritative evidence-at-admission verdict is taken just before attach
// (DESIGN.md §15): a definitive Unauthorized is a Sybil and is dropped;
// Unresolved, an orphan and one stamped too far ahead are the caller's to
// park; the rest goes to attachVerified. seq is the attach sequence when
// the outcome is relayAttached.
func (n *FullNode) admitRelayed(rec inflight, now time.Time) (outcome relayOutcome, seq uint64) {
	if rec.Timestamp().After(now.Add(maxClockSkew)) {
		return relayEarly, 0
	}
	verdict, ok := n.relayAuthVerdict(rec.View)
	switch {
	case !ok:
		if !n.tangle.WasSnapshotted(rec.Trunk()) && !n.tangle.WasSnapshotted(rec.Branch()) {
			// A parent is simply missing: nothing to attach to, and an
			// attempt would only count a reject every time it is retried.
			return relayOrphan, 0
		}
		// A parent was folded away by a snapshot: the attach says so.
	case verdict == authz.VerdictUnauthorized:
		n.counters.StaleAuthRejects.Inc()
		return relayUnauthorized, 0
	case verdict == authz.VerdictUnresolved:
		return relayUnresolved, 0
	}
	info, err := n.attachVerified(rec, now)
	switch {
	case err == nil:
		return relayAttached, info.Seq
	case errors.Is(err, tangle.ErrDuplicate):
		return relayDuplicate, 0
	case errors.Is(err, tangle.ErrUnknownParent):
		return relayOrphan, 0
	}
	return relayFailed, 0
}

// relayAuthVerdict takes the evidence-at-admission authorization
// verdict for one RELAYED transaction (DESIGN.md §15). The evidence is
// the highest authorization-list sequence in the transaction's past
// cone — the membership state its admitting gateway could have judged
// it against — and the sender is accepted if it is a member of ANY
// retained list version from that sequence forward (or of the current
// view). Judging against history instead of this node's momentary
// registry is what makes relay admission order-independent: a
// revocation arriving before an older, still-valid reading no longer
// rejects the reading and orphans its descendants.
//
// Returns ok=false when the verdict cannot be taken at all because a
// parent is unattached (the caller falls through to the orphan path).
// An Unresolved verdict means a list sequence in the scanned range is
// missing here: a ledger transaction like any other, which sync repairs.
func (n *FullNode) relayAuthVerdict(v txn.View) (verdict authz.Verdict, ok bool) {
	if k := v.Kind(); k == txn.KindAuthorization || k == txn.KindGenesis {
		return authz.VerdictAuthorized, true
	}
	seq, haveParents := n.tangle.EvidenceSeq(v.Trunk(), v.Branch())
	if !haveParents {
		return authz.VerdictUnresolved, false
	}
	verdict, _ = n.registry.EvidenceVerdict(v.Sender(), seq)
	return verdict, true
}

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

// parkQuarantine parks one relayed transaction that waits for a parent or
// an authorization list this node lacks.
func (n *FullNode) parkQuarantine(rec inflight, now time.Time) {
	fresh, evicted := n.quar.park(rec, now)
	if fresh {
		n.counters.Quarantined.Inc()
	}
	n.counters.QuarantineDrops.Add(int64(evicted))
}

// kickQuarantine retries every parked transaction — called whenever new
// evidence can have arrived (an authorization list attached, a batch
// completed). Single-flight without losing a kick: a caller that finds
// one running (another handler's, the repair worker's, or — an auth
// list attaching during a repair — its own caller's) leaves a note and
// returns, and the running one goes round again before it stops, so
// what the later caller attached is seen.
func (n *FullNode) kickQuarantine(now time.Time) {
	if n.quar.size() == 0 {
		return
	}
	n.kickWanted.Store(true)
	for n.kickWanted.Load() && n.kickMu.TryLock() {
		n.kickWanted.Store(false)
		n.retryParked(now)
		n.kickMu.Unlock()
	}
}

// retryParked is one kick, under kickMu. Repairs can cascade — an
// attached entry may be the missing parent of another — hence the loop
// until a full pass makes no progress.
func (n *FullNode) retryParked(now time.Time) {
	var last uint64 // the attach sequence of the newest transaction this kick attached
	for progress := true; progress; {
		progress = false
		for _, e := range n.quar.drain() {
			if n.tangle.Contains(e.rec.id) {
				continue // repaired by another path meanwhile
			}
			if now.After(e.deadline) {
				n.counters.QuarantineDrops.Inc()
				continue
			}
			switch outcome, seq := n.admitRelayed(e.rec, now); outcome {
			case relayAttached:
				last = seq
				n.counters.QuarantineRepairs.Inc()
				progress = true
			case relayOrphan, relayUnresolved, relayEarly:
				n.quar.repark(e)
			case relayFailed:
				n.counters.QuarantineDrops.Inc()
			}
		}
	}
	n.awaitJournal(last, maxUnsyncedRelay)
}

// QuarantineLen reports how many relayed transactions are currently
// parked awaiting evidence.
func (n *FullNode) QuarantineLen() int { return n.quar.size() }

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

// holdsAny reports whether one of ids is parked.
func (q *quarantine) holdsAny(ids map[hashutil.Hash]struct{}) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for id := range ids {
		if _, ok := q.entries[id]; ok {
			return true
		}
	}
	return false
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

// orphanRepair is the repair worker of a node with a regional network:
// NewFull starts it (repairOrphans), a handler that parked something wakes
// it (reportOrphans), and Close stops and joins it.
type orphanRepair struct {
	ctx    context.Context // cancelled by Close
	cancel context.CancelFunc
	wake   chan struct{} // one slot: a report while a wake is pending rides with that one
	done   chan struct{} // closed when the worker has returned

	mu sync.Mutex
	// reported are the orphans handlers have parked since the worker's
	// pass began (its own it took with it); from is the peer that relayed
	// the latest of them.
	reported map[hashutil.Hash]struct{}
	from     string
}

func newOrphanRepair() *orphanRepair {
	ctx, cancel := context.WithCancel(context.Background())
	return &orphanRepair{ctx: ctx, cancel: cancel, wake: make(chan struct{}, 1), done: make(chan struct{})}
}

// reportOrphans reports orphans a relayed batch has just parked — for a
// parent or for an authorization list — to the repair worker and
// returns; the handler never waits for a repair.
func (n *FullNode) reportOrphans(from string, orphans []hashutil.Hash) {
	r := n.repair
	if r == nil || r.ctx.Err() != nil {
		return
	}
	r.mu.Lock()
	if r.reported == nil {
		r.reported = make(map[hashutil.Hash]struct{}, len(orphans))
	}
	for _, id := range orphans {
		r.reported[id] = struct{}{}
	}
	r.from = from
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// repairOrphans is the repair worker. It works in passes: woken, it takes
// what has been reported, waits out the grace, and if one of those is
// still parked pulls the peers' ledgers — the relaying peer first when it
// is one this node can dial, which over TCP it is not (an inbound
// connection's remote address is an ephemeral port), then every listed
// peer — until a pull has attached something and none of them is parked
// any more. Orphans reported during a pass wait for the next: each sits
// out a full grace before it costs a pull.
func (n *FullNode) repairOrphans() {
	r := n.repair
	defer close(r.done)
	for {
		select {
		case <-r.wake:
		case <-r.ctx.Done():
			return
		}
		r.mu.Lock()
		waiting, from := r.reported, r.from
		r.reported = nil
		r.mu.Unlock()
		if len(waiting) == 0 {
			continue // the pass before took this wake's report with it
		}

		grace := time.NewTimer(orphanRepairGrace)
		select {
		case <-grace.C:
		case <-r.ctx.Done():
			grace.Stop()
			return
		}
		if !n.stillParked(waiting) {
			continue
		}
		n.pipeline.OrphanSyncs.Inc()
		for _, peer := range n.repairPeers(from) {
			attached, _ := n.pull(r.ctx, n.cfg.Network, peer, wholeLedger) // a peer that fails is skipped: the next may hold it
			n.pipeline.OrphanSyncAttached.Add(int64(attached))
			if r.ctx.Err() != nil || attached > 0 && !n.stillParked(waiting) {
				break
			}
		}
	}
}

// stillParked retries everything parked — waiting out a kick that is
// running, so that it never sees the quarantine half drained, and going
// round again for one requested meanwhile, as kickQuarantine does — and
// reports whether one of ids is still parked after that.
func (n *FullNode) stillParked(ids map[hashutil.Hash]struct{}) bool {
	for {
		n.kickMu.Lock()
		n.kickWanted.Store(false)
		n.retryParked(n.cfg.Clock.Now())
		parked := n.quar.holdsAny(ids)
		n.kickMu.Unlock()
		if !n.kickWanted.Load() {
			return parked
		}
	}
}

// repairPeers orders the peers a repair pulls from: from first when it
// is a listed peer, then the rest.
func (n *FullNode) repairPeers(from string) []string {
	peers := slices.Clone(n.cfg.Network.Peers())
	if i := slices.Index(peers, from); i > 0 {
		peers = slices.Insert(slices.Delete(peers, i, i+1), 0, from)
	}
	return peers
}
