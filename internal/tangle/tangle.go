// Package tangle implements the DAG-structured distributed ledger that
// B-IoT is built on (paper §II-B, §IV-A4).
//
// There are no blocks: each transaction is a vertex that approves two
// former transactions ("tips"). New transactions are attached after
// validating their parents; every transaction accumulates weight as newer
// transactions directly or indirectly approve it, and is confirmed once
// its cumulative weight passes a threshold — the tangle analogue of
// Bitcoin's six-block security.
//
// The package also houses the ledger-level detectors for the paper's
// §III threat model: double-spend conflicts (resolved by cumulative
// weight) and lazy-tip behaviour (approving a fixed pair of very old
// transactions). Detections are emitted as Events that the node layer
// feeds into the credit ledger.
package tangle

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// Config tunes ledger behaviour.
type Config struct {
	// ConfirmationWeight is the cumulative weight at which a transaction
	// is considered confirmed (irreversible for practical purposes).
	ConfirmationWeight int

	// LazyParentAge: a parent approved this long before attach time is
	// considered "very old"; approving two such parents is lazy-tip
	// behaviour (unless the parents were still tips, i.e. the tangle is
	// quiet).
	LazyParentAge time.Duration

	// Seed seeds tip selection. Zero selects a fixed default so runs
	// are reproducible unless explicitly randomized.
	Seed int64
}

// DefaultConfig returns production-ish defaults: confirmation at
// cumulative weight 5, lazy threshold 30 s.
func DefaultConfig() Config {
	return Config{
		ConfirmationWeight: 5,
		LazyParentAge:      30 * time.Second,
	}
}

// Validate checks config sanity.
func (c Config) Validate() error {
	if c.ConfirmationWeight < 1 {
		return fmt.Errorf("confirmation weight %d must be ≥ 1", c.ConfirmationWeight)
	}
	if c.LazyParentAge <= 0 {
		return fmt.Errorf("lazy parent age %v must be positive", c.LazyParentAge)
	}
	return nil
}

// Status describes a vertex's ledger state.
type Status uint8

const (
	// StatusPending: attached, accumulating weight.
	StatusPending Status = iota + 1
	// StatusConfirmed: cumulative weight passed the threshold.
	StatusConfirmed
	// StatusRejected: lost a double-spend conflict.
	StatusRejected
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusConfirmed:
		return "confirmed"
	case StatusRejected:
		return "rejected"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// vertex is what the ledger keeps per resident transaction: the
// transaction's immutable canonical encoding — nothing decoded; parents,
// kind and issuer are read from it where they are wanted — and the DAG
// bookkeeping beside it, packed into 120 bytes, inside the allocator's
// 128-byte size class (instants as unix nanoseconds, counters in 32 bits;
// TestBytesPerAttachedVertex asserts the size). It keeps no arrival time:
// what the ledger decides about a transaction — a conflict's winner, a
// snapshot's cut — reads its bytes and the DAG, never when this node
// happened to attach it.
type vertex struct {
	// enc views the canonical encoding, shared with whoever attached the
	// transaction and never written.
	enc txn.View
	id  hashutil.Hash
	// approvers are the vertices that approve this one directly, held
	// by pointer like the attachment-order indexes. One a snapshot has
	// pruned is replaced by prunedApprover, so the count survives and
	// the pruned vertex does not stay reachable through its parent.
	approvers []*vertex
	// firstApprovedAt is when the vertex gained its first approver
	// (left the tip pool), in unix nanoseconds; zero while still a tip.
	firstApprovedAt int64
	// mark is the epoch stamp used by propagateWeightLocked to detect
	// already-visited vertices without allocating a per-attach set.
	mark uint64
	// authSeq is the admission evidence: the highest authorization-list
	// sequence in this vertex's past cone, maintained incrementally as
	// max(parent authSeqs) — plus the vertex's own decoded sequence when
	// it IS an authorization list. Boundary-rooted vertices (restore,
	// bootstrap) under-approximate toward 0, which is safe: evidence
	// only widens the membership scan (see authz.EvidenceVerdict).
	authSeq   uint64
	cumWeight int32
	// height is the DAG height: 0 for genesis, 1+max(parent heights)
	// otherwise. Walk anchors report it so operators can see how far
	// from genesis the confirmed frontier has moved.
	height int32
	// shard is the tangle namespace the vertex belongs to: 0 for the
	// control plane (genesis, authorization lists), >= 1 for region
	// data shards. Assigned at attach time by the admission layer and
	// immutable afterwards.
	shard  uint32
	status Status
	// pruned marks a vertex a snapshot removed from the live set, for
	// the attachment-order indexes that hold it by pointer.
	pruned bool
}

// prunedApprover stands in a live vertex's approver list for every
// approver a snapshot has pruned.
var prunedApprover = &vertex{pruned: true, status: StatusConfirmed}

// Info is the public view of a vertex.
type Info struct {
	ID               hashutil.Hash
	Sender           identity.Address
	Kind             txn.Kind
	Status           Status
	DirectApprovers  int
	CumulativeWeight int
	// Seq is the attach sequence the attach that returned this Info gave
	// the vertex (see Event.Seq); zero from InfoOf, which does not keep it.
	Seq uint64
}

// Tangle is the DAG ledger. Safe for concurrent use. Mutations
// serialize on the write lock; read paths — including tip selection —
// take only the read lock and therefore run concurrently with each
// other.
type Tangle struct {
	cfg Config
	clk clock.Clock

	mu sync.RWMutex
	// vertices files every resident vertex by ID (index.go).
	vertices vertexTable
	tips     map[hashutil.Hash]struct{}
	// tipsSorted mirrors tips in sorted order, maintained incrementally
	// on mutation so SelectTips never re-collects and re-sorts the pool.
	tipsSorted []hashutil.Hash
	// order is the attachment order, for sync/export. Like the two
	// indexes below it holds the vertices themselves — a word each, not
	// a 32-byte ID and a lookup per use — in pages appended in place
	// (index.go).
	order pagedIndex
	// shardOrder mirrors order per namespace: the attachment order of
	// each shard's vertices, for namespace-scoped sync/export. Shard 0
	// (control plane) is always present.
	shardOrder map[uint32]*pagedIndex
	byKind     map[txn.Kind]*pagedIndex
	spends     map[txn.SpendKey][]hashutil.Hash
	// The cold region left behind by local snapshots (see cold.go and
	// snapshot.go): boundary holds the pruned IDs still referenced as a
	// parent by a live vertex (O(frontier)); cold, when installed, is
	// the store-backed membership index for everything pruned; coldMem
	// is the exact in-memory fallback used when no cold store exists.
	// nCold counts distinct pruned IDs (the old snapshotted-map
	// cardinality); coldEpoch stamps the latest pruning cutoff.
	boundary      map[hashutil.Hash]struct{}
	cold          ColdStore
	coldMem       map[hashutil.Hash]struct{}
	nCold         int
	coldEpoch     time.Time
	bootstrapping bool
	genesis       [2]hashutil.Hash

	// anchors is the moving confirmed-frontier anchor set: recently
	// confirmed vertices that weighted walks start from instead of
	// genesis. Invariant: every anchor is a live (non-snapshotted),
	// non-rejected, confirmed vertex — Snapshot and conflict
	// resolution purge entries that stop qualifying.
	anchors []hashutil.Hash

	// attaches numbers the vertices in attachment order: the last attach
	// sequence given (Event.Seq, Info.Seq).
	attaches uint64

	// epoch + wstack back the allocation-free weight propagation:
	// vertices visited in the current propagation carry mark == epoch,
	// and the traversal stack is reused across attaches. evscratch is
	// the per-attach event collection buffer, likewise reused (its
	// elements are copied into pendingEvents before the lock drops).
	epoch     uint64
	wstack    []*vertex
	evscratch []Event

	// Incrementally maintained statistics (StatsNow is O(1)).
	nConfirmed int // live vertices with StatusConfirmed (incl. genesis)
	nRejected  int // live vertices with StatusRejected
	nConflicts int // spend keys with more than one recorded spender

	// pendingEvents collects events produced under the write lock;
	// deliverMu serializes their delivery to observers after the lock
	// is released, preserving ledger order (see deliverPending).
	// spareEvents (guarded by deliverMu) is the emptied slice of the
	// previous delivery, swapped in as the next pendingEvents so that
	// the queue is not re-grown on every attach.
	pendingEvents []Event
	spareEvents   []Event
	deliverMu     sync.Mutex

	// walkers pools per-call RNG + scratch state so tip selection needs
	// no tangle-wide RNG (and hence no write lock). seed/walkerSeq make
	// pooled walker streams reproducible for a fixed Config.Seed.
	walkers   sync.Pool
	seed      int64
	walkerSeq atomic.Uint64

	met Metrics

	observers []Observer
}

// Attach errors.
var (
	ErrDuplicate     = errors.New("transaction already attached")
	ErrUnknownParent = errors.New("parent transaction not in tangle")
	ErrUnknownTx     = errors.New("transaction not in tangle")
)

// GenesisTransactions derives the two genesis transactions for a
// deployment from the manager's public key ("the public key of the
// manager will be hard-coded into genesis config of blockchain"). The
// derivation is deterministic and unsigned — genesis is trusted by fiat
// and pinned, so every full node configured with the same manager key
// computes identical genesis IDs and can sync.
func GenesisTransactions(managerPub identity.PublicKey) [2]*txn.Transaction {
	var out [2]*txn.Transaction
	for i := 0; i < 2; i++ {
		out[i] = &txn.Transaction{
			Kind:      txn.KindGenesis,
			Timestamp: time.Unix(0, 0).UTC(),
			Issuer:    append(identity.PublicKey(nil), managerPub...),
			Payload:   []byte(fmt.Sprintf("b-iot genesis %d", i)),
		}
	}
	return out
}

// New creates a tangle bootstrapped with the two deterministic genesis
// transactions of the deployment identified by managerPub.
func New(cfg Config, managerPub identity.PublicKey, clk clock.Clock) (*Tangle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tangle config: %w", err)
	}
	if len(managerPub) == 0 {
		return nil, errors.New("tangle requires the manager public key")
	}
	if clk == nil {
		clk = clock.Real()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xB107 // fixed default: reproducible runs
	}
	t := &Tangle{
		cfg:        cfg,
		clk:        clk,
		vertices:   newVertexTable(),
		tips:       make(map[hashutil.Hash]struct{}),
		shardOrder: make(map[uint32]*pagedIndex),
		byKind:     make(map[txn.Kind]*pagedIndex),
		spends:     make(map[txn.SpendKey][]hashutil.Hash),
		boundary:   make(map[hashutil.Hash]struct{}),
		coldMem:    make(map[hashutil.Hash]struct{}),
		seed:       seed,
	}
	t.walkers.New = func() any { return t.newWalker() }
	for i, g := range GenesisTransactions(managerPub) {
		id := g.ID()
		v := &vertex{
			enc:    g.View(),
			id:     id,
			status: StatusConfirmed, // genesis is trusted by fiat
		}
		t.indexLocked(v, txn.KindGenesis)
		t.addTipLocked(id)
		t.genesis[i] = id
		t.nConfirmed++
	}
	return t, nil
}

// indexLocked files a new vertex of the given kind by ID and appends it to
// the attachment-order indexes.
func (t *Tangle) indexLocked(v *vertex, kind txn.Kind) {
	t.vertices.insert(v)
	t.order.append(v)
	indexOf(t.shardOrder, v.shard).append(v)
	indexOf(t.byKind, kind).append(v)
}

// indexOf returns the index filed under key, creating it if need be.
func indexOf[K comparable](m map[K]*pagedIndex, key K) *pagedIndex {
	x := m[key]
	if x == nil {
		x = new(pagedIndex)
		m[key] = x
	}
	return x
}

// addTipLocked inserts id into the tip pool, keeping the sorted mirror
// in step. O(log n) search + O(n) shift on a pool that stays small.
func (t *Tangle) addTipLocked(id hashutil.Hash) {
	if _, ok := t.tips[id]; ok {
		return
	}
	t.tips[id] = struct{}{}
	i := sort.Search(len(t.tipsSorted), func(i int) bool {
		return t.tipsSorted[i].Compare(id) >= 0
	})
	t.tipsSorted = append(t.tipsSorted, hashutil.Hash{})
	copy(t.tipsSorted[i+1:], t.tipsSorted[i:])
	t.tipsSorted[i] = id
}

// removeTipLocked removes id from the tip pool and its sorted mirror.
func (t *Tangle) removeTipLocked(id hashutil.Hash) {
	if _, ok := t.tips[id]; !ok {
		return
	}
	delete(t.tips, id)
	i := sort.Search(len(t.tipsSorted), func(i int) bool {
		return t.tipsSorted[i].Compare(id) >= 0
	})
	if i < len(t.tipsSorted) && t.tipsSorted[i] == id {
		t.tipsSorted = append(t.tipsSorted[:i], t.tipsSorted[i+1:]...)
	}
}

// Genesis returns the two genesis transaction IDs.
func (t *Tangle) Genesis() [2]hashutil.Hash { return t.genesis }

// Size returns the number of attached transactions (including genesis).
func (t *Tangle) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.vertices.len()
}

// TipCount returns the current number of tips.
func (t *Tangle) TipCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tips)
}

// Contains reports whether id is attached.
func (t *Tangle) Contains(id hashutil.Hash) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.vertices.get(id) != nil
}

// Get returns the transaction with the given ID.
func (t *Tangle) Get(id hashutil.Hash) (*txn.Transaction, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.vertices.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTx, id.Short())
	}
	return v.enc.Transaction(v.id), nil
}

// Encoded returns the canonical encoding of the transaction with the
// given ID: the bytes the ledger itself keeps, shared and read-only.
// Where Get builds a transaction (and its caller pays an Encode), a reader
// that only forwards the transaction — the RPC surface — pays nothing.
func (t *Tangle) Encoded(id hashutil.Hash) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.vertices.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTx, id.Short())
	}
	return v.enc.Bytes(), nil
}

// InfoOf returns the ledger view of the transaction with the given ID.
func (t *Tangle) InfoOf(id hashutil.Hash) (Info, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.vertices.lookup(id)
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrUnknownTx, id.Short())
	}
	return t.infoLocked(v), nil
}

func (t *Tangle) infoLocked(v *vertex) Info {
	return Info{
		ID:               v.id,
		Sender:           v.enc.Sender(),
		Kind:             v.enc.Kind(),
		Status:           v.status,
		DirectApprovers:  len(v.approvers),
		CumulativeWeight: int(v.cumWeight),
	}
}

// Weight returns the paper's per-transaction weight w_k used by the
// credit mechanism: 1 + the number of direct approvals the transaction
// has received ("the weight of a transaction means the number of
// validation to this transaction").
func (t *Tangle) Weight(id hashutil.Hash) (float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.vertices.lookup(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTx, id.Short())
	}
	return 1 + float64(len(v.approvers)), nil
}

// Attach inserts tx into the tangle. The caller (the gateway layer) is
// responsible for signature, PoW and authorization checks; Attach
// enforces structural validity only. Detected lazy-tip behaviour and
// double-spend conflicts are reported through observers; a conflicting
// transaction is still attached (the DAG keeps both branches) but the
// lighter branch is marked rejected.
func (t *Tangle) Attach(tx *txn.Transaction) (Info, error) {
	return t.AttachShard(tx.View(), tx.ID(), 0)
}

// AttachShard is Attach for the viewed transaction filed under id — the
// digest of its bytes, which the ledger keeps as they are and never
// writes — with the vertex tagged into the given tangle namespace (0 =
// control plane, >= 1 = region data shards). The DAG itself is shared —
// parents may live in any namespace — only the attachment-order indexes
// are per shard.
func (t *Tangle) AttachShard(enc txn.View, id hashutil.Hash, shard uint32) (Info, error) {
	t.mu.Lock()
	info, err := t.attachLocked(enc, id, shard)
	t.mu.Unlock()
	if err == nil {
		t.deliverPending()
	}
	return info, err
}

func (t *Tangle) attachLocked(enc txn.View, id hashutil.Hash, shard uint32) (Info, error) {
	if t.vertices.get(id) != nil {
		return Info{}, fmt.Errorf("%w: %s", ErrDuplicate, id.Short())
	}
	if t.wasColdLocked(id) {
		return Info{}, fmt.Errorf("%w: %s (snapshotted)", ErrDuplicate, id.Short())
	}
	trunkID, branchID := enc.Trunk(), enc.Branch()
	trunk, ok := t.vertices.lookup(trunkID)
	if !ok {
		if !t.bootstrapAttachableLocked(trunkID) {
			if t.wasColdLocked(trunkID) {
				return Info{}, fmt.Errorf("%w: trunk %s", ErrSnapshottedParent, trunkID.Short())
			}
			return Info{}, fmt.Errorf("%w: trunk %s", ErrUnknownParent, trunkID.Short())
		}
		trunk = nil // boundary root during bootstrap: attach without the parent
	}
	branch, ok := t.vertices.lookup(branchID)
	if !ok {
		if !t.bootstrapAttachableLocked(branchID) {
			if t.wasColdLocked(branchID) {
				return Info{}, fmt.Errorf("%w: branch %s", ErrSnapshottedParent, branchID.Short())
			}
			return Info{}, fmt.Errorf("%w: branch %s", ErrUnknownParent, branchID.Short())
		}
		branch = nil
	}

	info := t.insertLocked(enc, id, trunk, branch, shard)
	t.met.ResidentVertices.Set(int64(t.vertices.len()))
	return info, nil
}

// bootstrapAttachableLocked reports whether a missing parent may be
// attached through anyway: only in bootstrap mode, and only when the
// parent is one of the manifest's seeded boundary roots.
func (t *Tangle) bootstrapAttachableLocked(pid hashutil.Hash) bool {
	if !t.bootstrapping {
		return false
	}
	_, ok := t.boundary[pid]
	return ok
}

// EvidenceSeq derives the admission evidence a transaction with the
// given parents would carry: the highest authorization-list sequence
// in its past cone (the max of the parents' own evidence). ok is false
// when a parent is neither attached nor a bootstrap boundary root —
// the transaction is an orphan and its evidence cannot be resolved
// yet. Boundary roots contribute 0 (a safe under-approximation: it can
// only widen the membership scan, never narrow it).
func (t *Tangle) EvidenceSeq(trunk, branch hashutil.Hash) (seq uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, pid := range [...]hashutil.Hash{trunk, branch} {
		v, live := t.vertices.lookup(pid)
		if !live {
			if t.bootstrapAttachableLocked(pid) {
				continue // boundary root: pre-epoch history, evidence 0
			}
			return 0, false
		}
		if v.authSeq > seq {
			seq = v.authSeq
		}
	}
	return seq, true
}

// insertLocked wires a validated transaction into the DAG. trunk or
// branch may be nil on the Restore path only, meaning that parent was
// folded away by a pre-crash snapshot: the vertex attaches as a
// pruned-boundary root (no approval is credited to the missing parent,
// and its height restarts relative to the boundary).
func (t *Tangle) insertLocked(enc txn.View, id hashutil.Hash, trunk, branch *vertex, shard uint32) Info {
	now := t.clk.Now()
	nowNanos := now.UnixNano()
	lazy := false
	if trunk != nil && branch != nil {
		lazy = t.lazyParentsLocked(trunk, branch, nowNanos)
	}

	height := int32(0)
	if trunk != nil {
		height = trunk.height
	}
	if branch != nil && branch.height > height {
		height = branch.height
	}
	authSeq := uint64(0)
	if trunk != nil {
		authSeq = trunk.authSeq
	}
	if branch != nil && branch.authSeq > authSeq {
		authSeq = branch.authSeq
	}
	kind := enc.Kind()
	if kind == txn.KindAuthorization {
		if list, err := authz.DecodeList(enc.Payload()); err == nil && list.Seq > authSeq {
			authSeq = list.Seq
		}
	}
	v := &vertex{
		enc:     enc,
		id:      id,
		status:  StatusPending,
		height:  height + 1,
		shard:   shard,
		authSeq: authSeq,
	}
	t.indexLocked(v, kind)

	t.attaches++
	events := append(t.evscratch[:0], Event{Kind: EventAttached, Tx: id, At: now, Txn: enc, Seq: t.attaches})

	// Wire approvals and retire approved tips.
	for _, p := range [...]*vertex{trunk, branch} {
		if p == nil {
			continue // snapshotted parent on the Restore path
		}
		p.approvers = append(p.approvers, v)
		genesis := p.enc.Kind() == txn.KindGenesis
		if p.firstApprovedAt == 0 {
			p.firstApprovedAt = nowNanos
		}
		t.removeTipLocked(p.id)
		if !genesis {
			events = append(events, Event{
				Kind:   EventApproved,
				Node:   p.enc.Sender(),
				Tx:     p.id,
				At:     now,
				Weight: 1 + float64(len(p.approvers)),
			})
		}
		if trunk == branch {
			break // same parent twice: count the approval once
		}
	}
	t.addTipLocked(id)

	// Propagate cumulative weight to all (unfrozen) ancestors and
	// confirm those that cross the threshold.
	events = t.propagateWeightLocked(v, events)

	if lazy {
		events = append(events, Event{
			Kind:    EventLazyTips,
			Node:    enc.Sender(),
			Tx:      id,
			At:      now,
			Related: []hashutil.Hash{enc.Trunk(), enc.Branch()},
		})
	}

	// Double-spend bookkeeping for transfers.
	if kind == txn.KindTransfer {
		if tr, err := enc.Transfer(); err == nil {
			events = append(events, t.recordSpendLocked(v, tr, now)...)
		}
	}

	info := t.infoLocked(v)
	info.Seq = t.attaches
	t.pendingEvents = append(t.pendingEvents, events...)
	t.evscratch = events[:0] // keep the grown capacity for the next attach
	return info
}

// lazyParentsLocked implements the §III "lazy tips" detector: both
// parents were already approved (left the tip pool) longer ago than
// LazyParentAge. A node approving parents that are still tips is by
// definition contributing, however old those tips are.
func (t *Tangle) lazyParentsLocked(trunk, branch *vertex, nowNanos int64) bool {
	for _, p := range [...]*vertex{trunk, branch} {
		if p.firstApprovedAt == 0 {
			return false // still a tip
		}
		if time.Duration(nowNanos-p.firstApprovedAt) < t.cfg.LazyParentAge {
			return false
		}
	}
	return true
}

// propagateWeightLocked adds 1 to the cumulative weight of every
// ancestor of v, confirming vertices that cross the threshold (their
// confirmation events are appended to events, which is returned).
// Traversal stops at confirmed vertices: their inclusion is already
// final, so their weight is frozen — this bounds attach cost to the
// unconfirmed frontier instead of the whole history.
//
// The traversal is allocation-free: visited vertices are stamped with a
// per-propagation epoch instead of being collected into a set, and the
// stack is reused across attaches.
func (t *Tangle) propagateWeightLocked(v *vertex, events []Event) []Event {
	v.cumWeight++ // own weight

	t.epoch++
	v.mark = t.epoch
	stack := t.wstack[:0]
	push := func(id hashutil.Hash) {
		if a := t.vertices.get(id); a != nil && a.mark != t.epoch {
			a.mark = t.epoch
			stack = append(stack, a)
		}
	}
	push(v.enc.Trunk())
	push(v.enc.Branch())

	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a.cumWeight++
		if a.status == StatusConfirmed {
			continue // frozen: do not descend further
		}
		if int(a.cumWeight) >= t.cfg.ConfirmationWeight && a.status == StatusPending {
			a.status = StatusConfirmed
			t.nConfirmed++
			t.addAnchorLocked(a)
			events = append(events, Event{
				Kind: EventConfirmed,
				Node: a.enc.Sender(),
				Tx:   a.id,
				At:   t.clk.Now(),
				Txn:  a.enc,
			})
		}
		if a.enc.Kind() != txn.KindGenesis {
			push(a.enc.Trunk())
			push(a.enc.Branch())
		}
	}
	t.wstack = stack // keep the grown capacity for the next attach
	return events
}

// Tips returns the current tip IDs in deterministic (sorted) order.
func (t *Tangle) Tips() []hashutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]hashutil.Hash, len(t.tipsSorted))
	copy(out, t.tipsSorted)
	return out
}

// ExportRange returns up to limit transactions starting at index from
// of the attachment order. Callers page through history with a moving
// offset so no single call holds the read lock for a full-history copy.
// A local snapshot between pages compacts the order (indices shift
// backwards); paged consumers tolerate that — sync deduplicates on
// attach and repairs gaps on the next round.
func (t *Tangle) ExportRange(from, limit int) []*txn.Transaction {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.order.span(from, limit)
	if n == 0 {
		return nil
	}
	out := make([]*txn.Transaction, 0, n)
	t.order.each(from, n, func(v *vertex) bool {
		out = append(out, v.enc.Transaction(v.id))
		return true
	})
	return out
}

// EncodedRange is ExportRange for a reader that only forwards the page:
// the IDs of the same range and, beside them, the stored canonical
// encodings themselves (see Encoded), shared and read-only, where
// ExportRange pays a deep Clone of every transaction and its caller an
// Encode of every clone.
func (t *Tangle) EncodedRange(from, limit int) (ids []hashutil.Hash, encodings [][]byte) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.order.span(from, limit)
	if n == 0 {
		return nil, nil
	}
	ids, encodings = make([]hashutil.Hash, 0, n), make([][]byte, 0, n)
	t.order.each(from, n, func(v *vertex) bool {
		ids, encodings = append(ids, v.id), append(encodings, v.enc.Bytes())
		return true
	})
	return ids, encodings
}

// AppendEncodedRange is EncodedRange for the sync responder: it appends to
// dst the stored encodings of the range's vertices that skip, when set,
// does not claim, and returns them with the number of vertices the range
// held — the responder's next cursor is from plus that count. It builds
// no ID slice.
func (t *Tangle) AppendEncodedRange(dst [][]byte, from, limit int, skip func(id *hashutil.Hash) bool) ([][]byte, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return appendEncoded(dst, &t.order, from, limit, skip)
}

// appendEncoded is AppendEncodedRange over one index.
func appendEncoded(dst [][]byte, x *pagedIndex, from, limit int, skip func(id *hashutil.Hash) bool) ([][]byte, int) {
	n := x.span(from, limit)
	dst = slices.Grow(dst, n)
	x.each(from, n, func(v *vertex) bool {
		if skip == nil || !skip(&v.id) {
			dst = append(dst, v.enc.Bytes())
		}
		return true
	})
	return dst, n
}

// OrderedIDs returns up to limit attached transaction IDs starting at
// index from of the attachment order — the ID-only companion of
// ExportRange for peers advertising what they already have.
func (t *Tangle) OrderedIDs(from, limit int) []hashutil.Hash {
	return t.AppendOrderedIDs(nil, from, limit)
}

// AppendOrderedIDs is OrderedIDs appending to dst, for a caller that
// reuses its window.
func (t *Tangle) AppendOrderedIDs(dst []hashutil.Hash, from, limit int) []hashutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return appendIDs(dst, &t.order, from, limit)
}

// appendIDs appends the IDs of up to limit vertices of x from index from
// on to dst.
func appendIDs(dst []hashutil.Hash, x *pagedIndex, from, limit int) []hashutil.Hash {
	n := x.span(from, limit)
	dst = slices.Grow(dst, n)
	x.each(from, n, func(v *vertex) bool {
		dst = append(dst, v.id)
		return true
	})
	return dst
}

// EncodedByKind returns the stored canonical encodings (see Encoded) of
// the transactions of the given kind, shared and read-only, in attachment
// order from the given offset into that kind's history. Callers poll with
// a moving offset to consume only new messages (the key-distribution
// transport does this).
func (t *Tangle) EncodedByKind(kind txn.Kind, offset int) [][]byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x := t.byKind[kind]
	if x == nil {
		return [][]byte{}
	}
	out, _ := appendEncoded([][]byte{}, x, offset, x.len(), nil)
	return out
}

// Stats summarizes ledger state for RPC/monitoring.
type Stats struct {
	Transactions int
	Tips         int
	Confirmed    int
	Rejected     int
	Conflicts    int
	Snapshotted  int
}

// StatsNow returns current ledger statistics. The counters are
// maintained incrementally on mutation, so this is O(1) — no full
// scan, safe to poll from monitoring at any frequency.
func (t *Tangle) StatsNow() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{
		Transactions: t.vertices.len(),
		Tips:         len(t.tips),
		Confirmed:    t.nConfirmed,
		Rejected:     t.nRejected,
		Conflicts:    t.nConflicts,
		Snapshotted:  t.nCold,
	}
}
