// Package node implements B-IoT's node roles (paper §IV-A):
//
//   - FullNode — gateways and the manager. "Their main duty is to
//     maintain the whole blockchain network, i.e., the tangle. They
//     receive transaction requests from light nodes and broadcast in the
//     blockchain network"; gateways "only process transactions from
//     legal sensors that are authorized by the manager."
//   - LightNode — IoT devices. "They do not store blockchain
//     information ... What they can do are to verify tips, run PoW
//     consensus algorithm and send new transactions to full nodes."
//
// The package wires the substrates together: tangle + credit engine +
// authorization registry + token ledger + gossip, and implements the
// Fig-6 workflow.
package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/ledger"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/quality"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// FullConfig configures a FullNode.
type FullConfig struct {
	// Key is the node's account.
	Key *identity.KeyPair
	// Role must be RoleGateway or RoleManager.
	Role identity.Role
	// ManagerPub is the pinned manager public key ("hard-coded into
	// genesis config"); it determines both the trusted authorization-
	// list issuer and the deployment's deterministic genesis. For a
	// manager node it must be Key's own public key.
	ManagerPub identity.PublicKey

	// Tangle configures the ledger; zero value selects defaults.
	Tangle tangle.Config
	// Credit configures the consensus mechanism; zero value selects the
	// paper's defaults.
	Credit core.Params
	// Policy maps credit to difficulty; nil selects the default
	// additive policy.
	Policy core.DifficultyPolicy
	// TipStrategy selects parents for light nodes; zero selects uniform.
	TipStrategy tangle.TipStrategy

	// Clock is the time source; nil selects the real clock.
	Clock clock.Clock
	// Network attaches the node to the gossip fabric; nil runs the node
	// standalone (single-gateway deployments, unit tests). In a sharded
	// deployment this is the REGION-LOCAL fabric: the gateways admitting
	// into the same data namespace.
	Network gossip.Network

	// ShardID is the tangle namespace this gateway admits light-node
	// data traffic into (see DESIGN.md §16). Zero — the default — keeps
	// the single-region deployment: data shares namespace 0 with the
	// control plane. Control-plane kinds (genesis, authorization lists,
	// key distribution) always land in namespace 0 regardless.
	ShardID uint32
	// Backbone attaches the node to the inter-gateway backbone — the
	// second tier of a sharded deployment. Reconcile pages the control
	// namespace and the credit digests of every backbone peer; nil
	// disables cross-shard reconciliation.
	Backbone gossip.Network

	// RateLimit bounds per-device submissions per second — the DDoS
	// backstop behind the authorization check. Zero disables limiting.
	RateLimit int

	// Quality, when non-nil, validates plaintext sensor readings at
	// admission (range, rate-of-change, sequence). Violations do not
	// reject the transaction — the ledger keeps the evidence — but are
	// recorded as protocol misbehaviour in the credit ledger, raising a
	// persistent offender's PoW difficulty.
	Quality *quality.Validator

	// SnapshotEpoch, when positive, quantizes Compact's prune cutoff to
	// multiples of this interval, so gateways compacting at different
	// instants still cut at the same settled epoch boundary and serve
	// identical snapshot manifests. Zero keeps the raw now-keep cutoff.
	SnapshotEpoch time.Duration
}

func (c *FullConfig) withDefaults() (FullConfig, error) {
	cfg := *c
	if cfg.Key == nil {
		return cfg, errors.New("full node requires a key pair")
	}
	if cfg.Role != identity.RoleGateway && cfg.Role != identity.RoleManager {
		return cfg, fmt.Errorf("full node role must be gateway or manager, got %v", cfg.Role)
	}
	if len(cfg.ManagerPub) == 0 {
		return cfg, errors.New("full node requires the manager public key")
	}
	if cfg.Role == identity.RoleManager && cfg.Key.Address() != identity.AddressOf(cfg.ManagerPub) {
		return cfg, errors.New("manager node key does not match pinned manager key")
	}
	if cfg.Tangle == (tangle.Config{}) {
		cfg.Tangle = tangle.DefaultConfig()
	}
	if cfg.Credit == (core.Params{}) {
		cfg.Credit = core.DefaultParams()
	}
	if !cfg.TipStrategy.Valid() {
		cfg.TipStrategy = tangle.StrategyUniform
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	return cfg, nil
}

// Counters exposes a full node's operational counters.
//
// The two authorization-reject counters split by edge: Unauthorized
// counts submission-edge rejects (a light node this gateway turned
// away) plus forged authorization lists on any path, while
// StaleAuthRejects counts relay-path rejects — a gossiped or synced
// transaction whose sender is a member of no list version reachable
// from its admission evidence. Under the evidence gate an honest
// deployment keeps StaleAuthRejects at zero even through revocation
// storms; a nonzero value means a genuine Sybil relay (or a peer so
// far ahead that pruning outran the evidence window).
type Counters struct {
	Accepted          *metrics.Counter
	Rejected          *metrics.Counter
	RateLimited       *metrics.Counter
	Unauthorized      *metrics.Counter
	StaleAuthRejects  *metrics.Counter
	Quarantined       *metrics.Counter
	QuarantineDrops   *metrics.Counter
	QuarantineRepairs *metrics.Counter
	AuthListProbes    *metrics.Counter
	GossipIn          *metrics.Counter
	GossipOut         *metrics.Counter
	JournalErrors     *metrics.Counter
	QualityViolations *metrics.Counter
	// Backbone reconciliation: scoped control-plane pages pulled from
	// backbone peers, and remote credit records/events folded into the
	// local ledger.
	BackboneSyncPages  *metrics.Counter
	CreditTxsMerged    *metrics.Counter
	CreditEventsMerged *metrics.Counter
}

// FullNode is a gateway or manager. Safe for concurrent use: Submit may
// be called from many goroutines at once. Admission checks run lock-free
// (the tangle, credit ledger and registry carry their own fine-grained
// locks); the two node-local mutexes below guard disjoint state and are
// never held across a substrate call that can block.
type FullNode struct {
	cfg      FullConfig
	tangle   *tangle.Tangle
	engine   *core.Engine
	registry *authz.Registry
	tokens   *ledger.Ledger
	counters Counters
	pipeline PipelineMetrics
	bcast    *broadcaster // nil when Network is nil

	// verify settles signatures for every path into the ledger, a
	// submission included; submission and relayed are what the gate
	// demands on the submission edge and on the relay edges (see edges).
	verify              *verifyStage
	submission, relayed edge

	// quar parks relayed transactions whose admission evidence is not
	// resolvable yet; kickMu makes the retry loop single-flight and
	// kickWanted carries a kick requested while one was running over to
	// it (see kickQuarantine).
	quar       *quarantine
	kickMu     sync.Mutex
	kickWanted atomic.Bool

	// repair is the background orphan-repair lane (see repairOrphans):
	// single-flight, cancelled and joined by Close.
	repair orphanRepair

	pendingMu sync.Mutex
	pending   map[hashutil.Hash]txn.View // transfers awaiting confirmation, over the ledger's bytes
	deferred  []tangle.Event             // settlement events awaiting drainDeferred
	drained   []tangle.Event             // the last drain's slice, emptied: the next deferred
	journal   *store.Log                 // nil unless EnablePersistence was called
	coldIdx   *store.ColdIndex           // durable pruned-ID index; nil when memory-only

	// replayGate holds admission (read side: Submit, admitGossipBatch)
	// while EnablePersistenceFS replays the journal (write side).
	replayGate sync.RWMutex

	limiterMu sync.Mutex
	limiter   map[identity.Address]*rateBucket

	// syncMu guards the per-peer sync cursors: how far into each peer's
	// attachment order this node has already paged. Scoped (per-shard)
	// cursors share the map under a "peer#shard" key.
	syncMu     sync.Mutex
	syncCursor map[string]uint64
	// syncTurn serializes the pagers of one cursor (see syncFrom).
	syncTurn map[string]*sync.Mutex

	// lastReconcile is the unix-nano stamp of the last completed
	// backbone reconciliation round (0 = never); MemoryStats derives
	// the operator-facing reconcile lag from it.
	lastReconcile atomic.Int64
}

// rateWindow is the interval RateLimit counts submissions over.
const rateWindow = time.Second

type rateBucket struct {
	start time.Time
	count int
}

// Submission errors surfaced to light nodes.
var (
	ErrUnauthorizedDevice = errors.New("device is not authorized by the manager")
	ErrRateLimited        = errors.New("device exceeded submission rate limit")
	ErrWrongDifficulty    = errors.New("proof of work below the node's required difficulty")
)

// NewFull constructs a full node with fresh genesis state. Gateways in
// the same deployment share state through gossip sync, not through a
// shared constructor.
func NewFull(cfg FullConfig) (*FullNode, error) {
	conf, err := cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("full node config: %w", err)
	}
	creditLedger, err := core.NewLedger(conf.Credit)
	if err != nil {
		return nil, err
	}
	registry, err := authz.NewRegistry(identity.AddressOf(conf.ManagerPub))
	if err != nil {
		return nil, err
	}
	// Genesis derives deterministically from the manager public key, so
	// every full node in the deployment shares it and gossip sync works
	// from first principles.
	tg, err := tangle.New(conf.Tangle, conf.ManagerPub, conf.Clock)
	if err != nil {
		return nil, err
	}

	n := &FullNode{
		cfg:      conf,
		tangle:   tg,
		engine:   core.NewEngine(creditLedger, conf.Policy),
		registry: registry,
		tokens:   ledger.New(),
		counters: Counters{
			Accepted:           &metrics.Counter{},
			Rejected:           &metrics.Counter{},
			RateLimited:        &metrics.Counter{},
			Unauthorized:       &metrics.Counter{},
			StaleAuthRejects:   &metrics.Counter{},
			Quarantined:        &metrics.Counter{},
			QuarantineDrops:    &metrics.Counter{},
			QuarantineRepairs:  &metrics.Counter{},
			AuthListProbes:     &metrics.Counter{},
			GossipIn:           &metrics.Counter{},
			GossipOut:          &metrics.Counter{},
			JournalErrors:      &metrics.Counter{},
			QualityViolations:  &metrics.Counter{},
			BackboneSyncPages:  &metrics.Counter{},
			CreditTxsMerged:    &metrics.Counter{},
			CreditEventsMerged: &metrics.Counter{},
		},
		pipeline:   newPipelineMetrics(),
		quar:       newQuarantine(quarantineCap, quarantineTTL),
		pending:    make(map[hashutil.Hash]txn.View),
		limiter:    make(map[identity.Address]*rateBucket),
		syncCursor: make(map[string]uint64),
		syncTurn:   make(map[string]*sync.Mutex),
	}
	n.verify = newVerifyStage(n.pipeline)
	n.submission, n.relayed = n.edges()
	n.repair.ctx, n.repair.cancel = context.WithCancel(context.Background())
	tg.Observe(tangle.ObserverFunc(n.onTangleEvent))
	if conf.Network != nil {
		n.bcast = newBroadcaster(n)
		conf.Network.SetHandler(gossip.HandlerFunc(n.handleGossip))
	}
	if conf.Backbone != nil {
		// The backbone serves the same protocol (scoped sync pages,
		// credit digests, snapshot manifests) through the same handler.
		conf.Backbone.SetHandler(gossip.HandlerFunc(n.handleGossip))
	}
	return n, nil
}

// Address returns the node's account address.
func (n *FullNode) Address() identity.Address { return n.cfg.Key.Address() }

// Key returns the node's account key pair (the manager layer signs
// authorization lists and key-distribution messages with it).
func (n *FullNode) Key() *identity.KeyPair { return n.cfg.Key }

// Role returns the node's role.
func (n *FullNode) Role() identity.Role { return n.cfg.Role }

// Tangle exposes the underlying ledger (read paths; examples and the
// RPC layer use it for queries).
func (n *FullNode) Tangle() *tangle.Tangle { return n.tangle }

// Engine exposes the credit-based consensus engine.
func (n *FullNode) Engine() *core.Engine { return n.engine }

// Registry exposes the authorization registry.
func (n *FullNode) Registry() *authz.Registry { return n.registry }

// Tokens exposes the settled token ledger.
func (n *FullNode) Tokens() *ledger.Ledger { return n.tokens }

// CountersView returns the node's operational counters.
func (n *FullNode) CountersView() Counters { return n.counters }

// Clock returns the node's time source.
func (n *FullNode) Clock() clock.Clock { return n.cfg.Clock }

// onTangleEvent routes ledger events. Events are delivered serialized
// in ledger order after the tangle lock is released (possibly on a
// concurrent submitter's goroutine), so this must stay cheap and only
// touch concurrency-safe state; heavier follow-ups (token settlement)
// are deferred and drained after the attach completes. The same order is
// why the journal is fed from here (journalAttached).
func (n *FullNode) onTangleEvent(ev tangle.Event) {
	switch ev.Kind {
	case tangle.EventAttached:
		n.journalAttached(ev.Seq, ev.Txn.Bytes())
	case tangle.EventLazyTips:
		n.engine.Ledger().RecordMalicious(ev.Node, core.EventRecord{
			Behaviour: core.BehaviourLazyTips,
			At:        ev.At,
			Evidence:  append([]hashutil.Hash{ev.Tx}, ev.Related...),
			Detail:    "approved two stale, already-approved parents",
		})
	case tangle.EventDoubleSpend:
		n.engine.Ledger().RecordMalicious(ev.Node, core.EventRecord{
			Behaviour: core.BehaviourDoubleSpend,
			At:        ev.At,
			Evidence:  append([]hashutil.Hash{ev.Tx}, ev.Related...),
			Detail:    "conflicting spend of the same (account, seq) resource",
		})
	case tangle.EventApproved:
		n.engine.Ledger().UpdateWeight(ev.Node, ev.Tx, ev.Weight)
	case tangle.EventConfirmed, tangle.EventRejected:
		n.pendingMu.Lock()
		n.deferred = append(n.deferred, ev)
		n.pendingMu.Unlock()
	}
}

// drainDeferred settles confirmed transfers and discards rejected ones.
// Called after Attach returns (outside the tangle lock). The queue is
// double-buffered like the tangle's own: the slice a drain worked through
// is cleared and becomes the next queue, so it is not regrown from nothing
// for every confirmation. Drains may overlap; a later one that finds no
// spare starts an empty queue, and the larger slice is the one kept.
func (n *FullNode) drainDeferred() {
	n.pendingMu.Lock()
	events := n.deferred
	if len(events) == 0 {
		n.pendingMu.Unlock()
		return
	}
	n.deferred, n.drained = n.drained, nil
	n.pendingMu.Unlock()

	for _, ev := range events {
		if ev.Kind != tangle.EventConfirmed {
			// Rejected transfers stay tracked: conflict resolution can
			// reinstate a branch that later grows heavier, and only a
			// confirmation is final.
			continue
		}
		n.pendingMu.Lock()
		v, ok := n.pending[ev.Tx]
		if ok {
			delete(n.pending, ev.Tx)
		}
		n.pendingMu.Unlock()
		if ok {
			// Settlement can legitimately fail (e.g. overdraw after an
			// earlier conflicting spend settled); the ledger stays
			// consistent either way.
			_ = n.tokens.Apply(v, ev.Tx)
		}
	}

	clear(events)
	n.pendingMu.Lock()
	if cap(events) > cap(n.drained) {
		n.drained = events[:0]
	}
	n.pendingMu.Unlock()
}

func (n *FullNode) allowRate(addr identity.Address, now time.Time) bool {
	if n.cfg.RateLimit <= 0 {
		return true
	}
	n.limiterMu.Lock()
	defer n.limiterMu.Unlock()
	w := n.limiter[addr]
	if w == nil || now.Sub(w.start) >= rateWindow {
		n.limiter[addr] = &rateBucket{start: now, count: 1}
		return true
	}
	if w.count >= n.cfg.RateLimit {
		return false
	}
	w.count++
	return true
}

// DifficultyFor returns the PoW difficulty currently required of addr —
// what a light node queries before mining (Fig 6 step 4/5).
func (n *FullNode) DifficultyFor(addr identity.Address) int {
	return n.engine.DifficultyFor(addr, n.cfg.Clock.Now())
}

// TipsForApproval selects two parents for a light node (Fig 6 step 4:
// "get two random tips information from gateways").
func (n *FullNode) TipsForApproval() (trunk, branch hashutil.Hash, err error) {
	return n.tangle.SelectTips(n.cfg.TipStrategy)
}

// GetTransaction returns an attached transaction by ID, for light-node
// tip validation.
func (n *FullNode) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	return n.tangle.Get(id)
}

// TransactionsByKind pages through attached transactions of one kind.
func (n *FullNode) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	return n.tangle.ByKind(kind, offset), nil
}

// InfoOf returns ledger metadata for a transaction.
func (n *FullNode) InfoOf(id hashutil.Hash) (tangle.Info, error) {
	return n.tangle.InfoOf(id)
}

// Submit runs the full admission pipeline on a light-node submission: the
// gate at the submission edge's demands — structure, authorization by the
// live registry (Sybil/DDoS defense), credit-based PoW, signature, rate
// limit — then attachment, credit accounting, authorization-list
// application, journaling and gossip broadcast. Safe to call from many
// goroutines concurrently.
//
// On a journaling node Submit returns only after the fsync covering the
// transaction's journal record, not one covering a later record;
// replication does not wait for it. The attach queues the journal record
// (journalAttached), so the order is attach → queue the fan-out → wait
// for the journal barrier, and the broadcast and the link delay behind it
// overlap the flush instead of following it (in the paper a gateway
// verifies and broadcasts at once; the journal is this repository's).
// Broadcast therefore PRECEDES durability: a power cut between the two
// leaves the transaction on the relays, not in this gateway's journal,
// and the device without an answer. The rebooted gateway's sync pulls it
// back from a relay, and the device's retry is then a duplicate
// (DESIGN.md §11).
//
// Broadcast is asynchronous: Submit puts the ledger's bytes on every
// peer's queue without waiting, and peers observe the transaction shortly
// after (FlushBroadcast provides a barrier). The network never refuses a
// submission: a peer whose queue is full misses the transaction and sync
// repairs the gap.
func (n *FullNode) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	// A submission that attached while the journal was replaying would find
	// no log to be queued for and be reported admitted with no record of it
	// on disk: like a relayed batch, it waits for the replay.
	n.replayGate.RLock()
	defer n.replayGate.RUnlock()
	if err := ctx.Err(); err != nil {
		return tangle.Info{}, err
	}
	// A submission is a run of one through the gate, like a relayed batch of
	// one, and rides in the same pooled scratch: a run escapes to the
	// verify stage's workers.
	now, admitStart := n.cfg.Clock.Now(), time.Now()
	sc := batchScratchPool.Get().(*batchScratch)
	id := t.ID() // first: a device's transaction gets one snapshot, with its digest
	sc.recs = append(sc.recs, newInflight(t.View(), id, n.cfg.ShardID))
	errs, rec := n.gate(sc.recs, n.submission, now), sc.recs[0]
	sc.put()
	var info tangle.Info
	var err error
	if errs != nil {
		err = errs[0]
		n.countRefusal(err)
	} else {
		n.pipeline.AdmitLatency.Observe(time.Since(admitStart))
		info, err = n.attachVerified(rec, now)
	}
	if err != nil {
		return tangle.Info{}, err
	}
	if n.bcast != nil {
		n.bcast.enqueue(rec.Bytes())
	}
	n.awaitJournal(info.Seq, 0)
	return info, nil
}

// FlushBroadcast blocks until every transaction accepted before the
// call has been attempted against every current peer (delivered, failed
// or dropped). It is the ordering barrier for callers that need the old
// synchronous-broadcast visibility — tests, the facade's authorization
// publish, graceful shutdown.
func (n *FullNode) FlushBroadcast(ctx context.Context) error {
	if n.bcast == nil {
		return nil
	}
	return n.bcast.flush(ctx)
}

// Pipeline exposes the submission pipeline's metrics.
func (n *FullNode) Pipeline() PipelineMetrics { return n.pipeline }

// Network returns the node's gossip attachment (nil when the node runs
// standalone). The Supervisor closes it after the node during a
// graceful stop, and before the node when simulating a crash.
func (n *FullNode) Network() gossip.Network { return n.cfg.Network }

// Backbone returns the node's inter-gateway backbone attachment (nil
// for single-tier deployments). Like Network, the Supervisor closes it
// during teardown so a rebuilt node can rejoin under the same name.
func (n *FullNode) Backbone() gossip.Network { return n.cfg.Backbone }

// TransportHealthy reports the broadcast pipeline can still fan out:
// true for standalone nodes (nothing to fail) and for networked nodes
// whose pipeline has not been closed.
func (n *FullNode) TransportHealthy() bool {
	if n.cfg.Network == nil {
		return true
	}
	return n.bcast != nil && !n.bcast.closed.Load()
}

// LedgerMetrics exposes the tangle's anchored tip-selection gauges
// (anchor height/count, walk lengths, fallback counts).
func (n *FullNode) LedgerMetrics() tangle.Metrics { return n.tangle.Metrics() }

// Close drains and stops the broadcast pipeline and the background
// orphan repair. Read paths and local admission keep working;
// subsequent Submits attach locally but are no longer gossiped. Safe to
// call more than once.
func (n *FullNode) Close() error {
	if n.bcast != nil {
		n.bcast.close()
	}
	// Cancelled under the lane's lock: a handler starting a repair checks
	// the context and joins the wait group under it, so it is either
	// counted before the Wait or sees the cancellation.
	n.repair.mu.Lock()
	n.repair.cancel()
	n.repair.mu.Unlock()
	n.repair.wg.Wait()
	return nil
}

// inflight is one transaction on its way into the ledger, whichever edge
// it came in by — a submission, a relayed batch, a sync page, a quarantine
// retry, the journal: the checked view of its canonical encoding, over
// bytes the node owns and the ledger keeps as they are; the ID those bytes
// hash to; and the namespace it is filed under, derived once, at the gate.
// Nothing between the wire or the journal and the attach decodes it.
type inflight struct {
	txn.View
	id    hashutil.Hash
	shard uint32
}

// newInflight is the gate's record of v, filed under id. hint is the data
// namespace the transaction lands in when it is region traffic: the node's
// own shard at the submission edge and on replay, the batch's declared one
// on the relay path. Data and transfer traffic goes to the hinted shard,
// every control-plane kind (genesis, authorization lists, key
// distribution) to the globally replicated namespace 0.
func newInflight(v txn.View, id hashutil.Hash, hint uint32) inflight {
	rec := inflight{View: v, id: id, shard: hint}
	if k := v.Kind(); k != txn.KindData && k != txn.KindTransfer {
		rec.shard = 0
	}
	return rec
}

// attachVerified is the live edges' way into the ledger: it assumes the
// transaction already passed identity + difficulty verification, runs the
// commit tail with a plain attach, and does the live-only accounting
// around it. Journaling is no caller's: the attach announces the
// transaction and onTangleEvent queues its record.
func (n *FullNode) attachVerified(rec inflight, now time.Time) (tangle.Info, error) {
	attachStart := time.Now()
	info, err := n.commit(rec, now, n.tangle.AttachShard)
	if err != nil {
		n.counters.Rejected.Inc()
		return info, err
	}
	if rec.Kind() == txn.KindAuthorization {
		// A newly observed list may be exactly what a quarantined
		// transaction was waiting for.
		n.kickQuarantine(now)
	}
	n.counters.Accepted.Inc()
	n.pipeline.AttachLatency.Observe(time.Since(attachStart))
	return info, nil
}

// errListInvalid marks the one commit error that leaves the transaction
// attached: an authorization list the registry refused.
var errListInvalid = errors.New("authorization list on the ledger is invalid")

// commit is the one tail every path into the ledger runs — submission,
// relay and journal replay: track a transfer for settlement, write the
// credit record, attach, check data quality, observe an authorization
// list, settle what the attach confirmed. The state it leaves is a pure
// function of WHAT was attached (Eqns 2–5), which is why replay shares it.
// at is the admission instant: the clock at a live edge, the record's own
// timestamp on replay. attach is AttachShard live; on replay it restores
// on a snapshot boundary.
func (n *FullNode) commit(rec inflight, at time.Time,
	attach func(txn.View, hashutil.Hash, uint32) (tangle.Info, error)) (tangle.Info, error) {
	sender := rec.Sender()

	// Track transfers for settlement before attaching, so the
	// confirmation event (which may fire during Attach) finds it. The
	// bytes are the ledger's own, never written, so nothing is copied.
	if rec.Kind() == txn.KindTransfer {
		n.pendingMu.Lock()
		n.pending[rec.id] = rec.View
		n.pendingMu.Unlock()
	}

	// Credit accounting: the sender earns a valid-transaction record at
	// initial weight 1; approvals raise it via EventApproved. The record
	// must exist BEFORE Attach makes the transaction approvable — a
	// concurrent admission can approve it the instant Attach returns,
	// and UpdateWeight against a not-yet-recorded transaction would be
	// silently dropped.
	//
	// The record is stamped with the TRANSACTION's timestamp, not the
	// arrival time: with hyperbolic decay over ΔT, arrival stamping made
	// a node's credit view depend on when each transaction happened to
	// arrive, so a node catching up after a crash reconstructed a
	// different view than its peers built live — and a diverged view
	// means a diverged difficulty demand, which rejects peers' perfectly
	// mined transactions forever. Stamping with the embedded timestamp
	// (clamped to the admission instant so post-dating buys nothing)
	// makes the view a function of WHAT was admitted, not WHEN, so journal
	// replay and catch-up sync converge to the live nodes' view.
	recordAt := rec.Timestamp()
	if recordAt.After(at) {
		recordAt = at
	}
	n.engine.Ledger().RecordTransaction(sender, rec.id, 1, recordAt)

	info, err := attach(rec.View, rec.id, rec.shard)
	if err != nil {
		if !errors.Is(err, tangle.ErrDuplicate) {
			// A duplicate keeps what the first copy recorded (both are
			// idempotent); anything else never entered the ledger.
			n.engine.Ledger().RemoveTransaction(sender, rec.id)
			n.pendingMu.Lock()
			delete(n.pending, rec.id)
			n.pendingMu.Unlock()
		}
		return tangle.Info{}, fmt.Errorf("attach: %w", err)
	}

	// Sensor data quality control (§VIII extension): plaintext readings
	// are checked for plausibility; violations are punished through the
	// credit ledger, not by rejecting the (already attached) evidence.
	n.checkQuality(rec, at)

	// Authorization lists take effect once attached. Observe rather
	// than Apply: a list older than the current view is not an error on
	// a relay or replay path — it still records into the evidence window
	// (the whole point of retaining versions), it just does not move the
	// live view backward. Like the credit record above, the window
	// entry is stamped with the clamped EMBEDDED timestamp, so journal
	// replay and catch-up sync prune the window identically to the
	// nodes that saw the list live.
	if rec.Kind() == txn.KindAuthorization {
		if _, lerr := n.registry.Observe(rec.View, recordAt); lerr != nil {
			// The list is on-ledger but invalid (undecodable, forged
			// issuer); ledger state is unaffected.
			err = fmt.Errorf("observe authorization list: %w: %v", errListInvalid, lerr)
		}
	}
	n.drainDeferred()
	return info, err
}

// batchAck is the reply to every transaction batch. It is shared, so an
// acknowledgement allocates nothing; transports only read a reply.
var batchAck gossip.Message

// handleGossip processes inbound gossip. Transaction batches run
// through the parallel verification stage; sync requests are answered
// one bounded page at a time.
func (n *FullNode) handleGossip(from string, msg gossip.Message) (*gossip.Message, error) {
	n.counters.GossipIn.Inc()
	switch msg.Type {
	case gossip.MsgTransaction:
		// A scoped batch declares the namespace its data traffic belongs
		// to; legacy unscoped batches come from same-region peers and
		// default to this node's own shard.
		hint := n.cfg.ShardID
		if msg.Scoped {
			hint = uint32(msg.Shard)
		}
		n.admitGossipBatch(context.Background(), from, msg.TxData, true, hint)
		return &batchAck, nil
	case gossip.MsgSyncRequest:
		have := make(map[hashutil.Hash]struct{}, len(msg.Have))
		for _, id := range msg.Have {
			have[id] = struct{}{}
		}
		// One page per request: the requester's cursor (msg.Offset)
		// walks our attachment order — the whole ledger's, or one
		// namespace's when the request is scoped — so response size,
		// like request size, stays constant no matter how large the
		// ledger grows, and serving a sync holds the tangle read lock
		// for one page.
		// The page is built from the ledger's stored encodings, shared
		// and read-only; the transport copies them into its frame.
		size, page := n.tangle.Size, n.tangle.EncodedRange
		if msg.Scoped {
			shard := uint32(msg.Shard)
			size = func() int { return n.tangle.ShardSize(shard) }
			page = func(from, limit int) ([]hashutil.Hash, [][]byte) {
				return n.tangle.EncodedShardRange(shard, from, limit)
			}
		}
		total := size()
		off := total
		if msg.Offset < uint64(total) {
			off = int(msg.Offset)
		}
		ids, data := page(off, syncPageSize)
		if len(have) > 0 {
			unknown := data[:0]
			for i, id := range ids {
				if _, known := have[id]; !known {
					unknown = append(unknown, data[i])
				}
			}
			data = unknown
		}
		return &gossip.Message{
			Type:   gossip.MsgSyncResponse,
			TxData: data,
			Offset: uint64(off + len(ids)),
			Total:  uint64(total),
			More:   len(ids) == syncPageSize,
			Shard:  msg.Shard,
			Scoped: msg.Scoped,
		}, nil
	case gossip.MsgCreditRequest:
		return n.serveCreditPage(msg)
	case gossip.MsgAuthListRequest:
		// Anti-entropy probe for the evidence window: return the
		// authorization-list transaction(s) with the requested sequence
		// (msg.Offset). Lists are retained across snapshots, so any
		// sequence this node ever admitted is servable.
		var data [][]byte
		for _, enc := range n.tangle.EncodedByKind(txn.KindAuthorization, 0) {
			if v, err := txn.ViewOf(enc); err == nil {
				if list, err := authz.DecodeList(v.Payload()); err == nil && list.Seq == msg.Offset {
					data = append(data, enc)
				}
			}
		}
		return &gossip.Message{Type: gossip.MsgAuthListResponse, TxData: data}, nil
	case gossip.MsgSnapshotRequest:
		data, err := json.Marshal(n.SnapshotManifest())
		if err != nil {
			return nil, fmt.Errorf("encode snapshot manifest: %w", err)
		}
		return &gossip.Message{
			Type:   gossip.MsgSnapshotResponse,
			TxData: [][]byte{data},
			Total:  uint64(n.tangle.Size()),
		}, nil
	default:
		return nil, fmt.Errorf("unhandled gossip message type %v", msg.Type)
	}
}

// admitGossipBatch admits one inbound batch — a relayed one, or a sync
// page — and is the gate of that edge: each entry is copied into bytes
// the node owns, checked and identified (txn.ViewCopy), deduplicated, and
// filed with the namespace hint declares (newInflight); then parallel
// verification and the serialized attach. It never waits on the network:
// a transaction whose parent is not attached parks in the quarantine and
// is retried when later arrivals attach (kickQuarantine). Peers keep
// several batches in flight, so a parent is usually one batch behind
// its child, not lost; on the relay path (repair set) a pull for one
// that stays missing runs in the background (repairOrphans).
//
// Authorization lists change who verifies as authorized, so they are
// segment boundaries: the batch is verified and attached in runs, with
// each authorization list verified and admitted on its own in between,
// preserving the old one-at-a-time semantics for control-plane traffic.
//
// The returned count is the number of novel, decodable transactions
// that did NOT end up attached (verification rejects, parked orphans,
// attach failures other than duplicates). syncFrom uses it to decide
// whether a sync page may be marked consumed: a transaction rejected
// today — typically because this node's credit view lags and the
// difficulty check disagrees — may verify cleanly once more of the
// ledger has arrived, so its page must be re-offered by a later sync.
func (n *FullNode) admitGossipBatch(ctx context.Context, from string, raw [][]byte, repair bool, hint uint32) (failed int) {
	n.replayGate.RLock()
	defer n.replayGate.RUnlock()
	now := n.cfg.Clock.Now()
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.put()
	recs, seen := sc.recs, sc.seen
	for _, r := range raw {
		v, err := txn.ViewCopy(r)
		if err != nil {
			// One undecodable entry must not poison a batch: the
			// remaining transactions are independent admissions.
			continue
		}
		// An echo of what is attached already costs nothing past here: no
		// signature check, no gate.
		id := hashutil.Sum(v.Bytes())
		if n.tangle.Contains(id) {
			n.pipeline.VerifyCacheHits.Inc()
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		recs = append(recs, newInflight(v, id, hint))
	}
	sc.recs = recs

	// The call does not wait for the fsync of what it attaches: a relay
	// admission is not a client-facing durability promise (a record lost to
	// a crash in the gap is repaired by the next sync), and the transport
	// holds the pair's next batch until this one returns.
	var last uint64 // the attach sequence of the newest transaction this call attached
	defer func() { n.awaitJournal(last, maxUnsyncedRelay) }()

	var orphans []hashutil.Hash
	for start := 0; start < len(recs); {
		end := start + 1
		if recs[start].Kind() != txn.KindAuthorization {
			for end < len(recs) && recs[end].Kind() != txn.KindAuthorization {
				end++
			}
		}
		run := recs[start:end]
		errs := n.gate(run, n.relayed, now)
		for i, rec := range run {
			if errs != nil && errs[i] != nil {
				n.countRefusal(errs[i])
				failed++
				continue
			}
			switch outcome, seq := n.admitRelayed(rec, now); outcome {
			case relayAttached:
				last = seq
				continue
			case relayDuplicate:
				continue
			case relayUnresolved:
				n.parkQuarantine(ctx, from, rec, seq, now)
			case relayOrphan:
				// Park rather than drop: the missing parent is usually right
				// behind (a later batch, or later in the same sync), its
				// descendants certainly are, and dropping is the orphan
				// cascade behind the old revocation-storm flake. First sight
				// counts a reject, as the attach it used to cost did; the
				// retries do not. An authorization list takes effect in the
				// registry at once: it is manager-signed and verified, list
				// sequences never roll back, and the manager's publish waits
				// only for the fan-out, so a revocation must bind this
				// gateway's submission edge from the moment it is seen, not
				// from the moment its parents happen to arrive. (The probe
				// folds lists in the same way; attach observes the list again,
				// which is then a no-op. An undecodable list fails here as it
				// will when it attaches, which is where it is counted.)
				n.counters.Rejected.Inc()
				if rec.Kind() == txn.KindAuthorization {
					_, _ = n.observeList(rec.View, now)
				}
				n.parkQuarantine(ctx, from, rec, 0, now)
				orphans = append(orphans, rec.id)
			}
			failed++ // a Sybil, a parked one, or the attach failed: syncFrom keeps the page dirty
		}
		start = end
	}

	// Whatever attached may be the parent a parked transaction waits for.
	n.kickQuarantine(now)
	if repair && len(orphans) > 0 {
		n.repairOrphans(from, orphans)
	}
	return failed
}

// batchScratch is the working set of one admitGossipBatch call — its
// records and the IDs it has seen — or of one Submit, pooled: per-call
// allocation of both costs bench's recover-catchup 1.86 → 1.92 KiB
// alloc_kb_per_tx, and a submission's record one allocation in four.
type batchScratch struct {
	recs []inflight
	seen map[hashutil.Hash]struct{}
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{seen: make(map[hashutil.Hash]struct{})}
}}

// put empties sc — a pooled slice must not keep a rejected transaction's
// bytes alive — and returns it to the pool.
func (sc *batchScratch) put() {
	clear(sc.recs)
	clear(sc.seen)
	sc.recs = sc.recs[:0]
	batchScratchPool.Put(sc)
}

// relayOutcome is what the relay gate did with one transaction.
type relayOutcome int

const (
	relayAttached     relayOutcome = iota
	relayDuplicate                 // the ledger holds it already
	relayOrphan                    // a parent is not attached yet: park, retry when something attaches
	relayUnresolved                // the evidence scan hit a list-sequence gap: park until the list arrives
	relayUnauthorized              // a Sybil: drop
	relayFailed                    // the attach refused it: drop
)

// admitRelayed is the relay edge's gate, for a verified transaction fresh
// from a peer and for one retried out of the quarantine alike. The
// authoritative evidence-at-admission verdict is taken just before attach
// (DESIGN.md §15): a definitive Unauthorized is a Sybil and is dropped;
// Unresolved and an orphan are the caller's to park; the rest goes to
// attachVerified. seq is the list-sequence gap the evidence scan hit when
// the outcome is relayUnresolved, and the attach sequence when it is
// relayAttached.
func (n *FullNode) admitRelayed(rec inflight, now time.Time) (outcome relayOutcome, seq uint64) {
	verdict, missing, ok := n.relayAuthVerdict(rec.View)
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
		return relayUnresolved, missing
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

// observeList folds a verified manager-signed authorization list into
// the registry, stamped with its embedded timestamp clamped to now so
// that replay and catch-up reconstruct the evidence window identically.
func (n *FullNode) observeList(v txn.View, now time.Time) (bool, error) {
	recordAt := v.Timestamp()
	if recordAt.After(now) {
		recordAt = now
	}
	return n.registry.Observe(v, recordAt)
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
// missing is the first unobserved list sequence when the verdict is
// Unresolved — the anti-entropy probe target.
func (n *FullNode) relayAuthVerdict(v txn.View) (verdict authz.Verdict, missing uint64, ok bool) {
	if k := v.Kind(); k == txn.KindAuthorization || k == txn.KindGenesis {
		return authz.VerdictAuthorized, 0, true
	}
	seq, haveParents := n.tangle.EvidenceSeq(v.Trunk(), v.Branch())
	if !haveParents {
		return authz.VerdictUnresolved, 0, false
	}
	verdict, missing = n.registry.EvidenceVerdict(v.Sender(), seq)
	return verdict, missing, true
}

// parkQuarantine parks one unresolvable relayed transaction and, when
// the block is a known list-sequence gap, probes the relaying peer for
// the missing list immediately.
func (n *FullNode) parkQuarantine(ctx context.Context, from string, rec inflight, missingSeq uint64, now time.Time) {
	fresh, evicted := n.quar.park(rec, from, missingSeq, now)
	if fresh {
		n.counters.Quarantined.Inc()
	}
	if evicted > 0 {
		n.counters.QuarantineDrops.Add(int64(evicted))
	}
	if missingSeq > 0 {
		n.probeAuthList(ctx, from, missingSeq)
	}
}

// kickQuarantine retries every parked transaction — called whenever new
// evidence can have arrived (an authorization list attached, a batch
// completed). Single-flight without losing a kick: a caller that finds
// one running (another handler's, the background repair's, or — an auth
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
			case relayOrphan:
				n.quar.repark(e)
			case relayUnresolved:
				e.missingSeq = seq
				n.quar.repark(e)
			case relayFailed:
				n.counters.QuarantineDrops.Inc()
			}
		}
	}
	n.awaitJournal(last, maxUnsyncedRelay)
}

// probeAuthList asks the peer that relayed a transaction — or, when
// that is not an address this node can dial, its first listed peer —
// for the authorization list with the given sequence and folds a valid
// reply into the evidence window. This is targeted anti-entropy: the
// normal sync lane still delivers the list transaction for the ledger;
// the probe just un-blocks evidence verdicts without waiting for a full
// sync round.
func (n *FullNode) probeAuthList(ctx context.Context, from string, seq uint64) {
	if from == "" || seq == 0 {
		return
	}
	peers := n.repairPeers(from)
	if len(peers) == 0 {
		return
	}
	n.counters.AuthListProbes.Inc()
	reply, err := n.cfg.Network.Request(ctx, peers[0], gossip.Message{
		Type:   gossip.MsgAuthListRequest,
		Offset: seq,
	})
	if err != nil || reply.Type != gossip.MsgAuthListResponse {
		return
	}
	// A list is only observed, never attached, so its view may alias the
	// reply: the registry keeps none of its bytes. The reply passes the
	// relay edges' gate and counts nothing.
	now := n.cfg.Clock.Now()
	var lists []inflight
	for _, raw := range reply.TxData {
		if v, err := txn.ViewOf(raw); err == nil && v.Kind() == txn.KindAuthorization {
			lists = append(lists, newInflight(v, hashutil.Hash{}, 0))
		}
	}
	errs := n.gate(lists, n.relayed, now)
	for i, rec := range lists {
		if errs == nil || errs[i] == nil {
			_, _ = n.observeList(rec.View, now)
		}
	}
	n.kickQuarantine(now)
}

// QuarantineLen reports how many relayed transactions are currently
// parked awaiting evidence.
func (n *FullNode) QuarantineLen() int { return n.quar.size() }

const (
	// syncPageSize bounds how many transactions a single ExportRange
	// call clones under the tangle read lock while serving a sync page.
	syncPageSize = 256
	// syncHaveWindow bounds the recent-ID advertisement in a sync
	// request: instead of shipping the entire known-ID set (O(ledger)
	// per sync), the requester advertises only its newest window, which
	// prunes the common recently-gossiped overlap from responses.
	syncHaveWindow = 512
	// maxSyncPages bounds one syncFrom call (~1M transactions).
	maxSyncPages = 4096
)

// recentHave returns the newest syncHaveWindow attached IDs.
func (n *FullNode) recentHave() []hashutil.Hash {
	from := n.tangle.Size() - syncHaveWindow
	if from < 0 {
		from = 0
	}
	return n.tangle.OrderedIDs(from, syncHaveWindow)
}

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

// cursorKey names the persisted cursor for one (peer, scope) pair: the
// bare peer name for the whole ledger, "peer#shard" for a namespace.
func (s syncScope) cursorKey(peer string) string {
	if !s.scoped {
		return peer
	}
	return fmt.Sprintf("%s#%d", peer, s.shard)
}

func (n *FullNode) cursorFor(key string) uint64 {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	return n.syncCursor[key]
}

// turnFor returns the lock that admits one pager at a time to the
// cursor named key.
func (n *FullNode) turnFor(key string) *sync.Mutex {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	turn := n.syncTurn[key]
	if turn == nil {
		turn = new(sync.Mutex)
		n.syncTurn[key] = turn
	}
	return turn
}

func (n *FullNode) setCursor(key string, cursor uint64) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	n.syncCursor[key] = cursor
}

// syncFrom pulls missing transactions from one peer over net and admits
// them in order. The exchange is paged: each request carries this node's
// cursor into the peer's attachment order (the whole ledger's, or one
// namespace's) plus a bounded recent-ID window, and each response
// returns one page — both directions stay constant-size as the DAG
// grows. The cursor persists across calls, so a steady-state sync only
// ever pages the peer's new tail.
//
// One page is kept in flight: the cursor of page k+1 is page k's
// reply.Offset, known the moment k arrives, so k+1 is requested before k
// is admitted and the link round trip overlaps the verification and
// attach of the page before — a catch-up is paced by the slower of the
// two, not by their sum. Pages are still admitted strictly in order. The
// request's Have window is then one page stale; what it would have pruned
// arrives and is skipped as a duplicate at Contains.
func (n *FullNode) syncFrom(ctx context.Context, net gossip.Network, peer string, scope syncScope) {
	if net == nil {
		return
	}
	// Data in a whole-ledger page belongs to the serving regional peer's
	// namespace, which is this node's own; a namespace page says so itself.
	hint, pages := n.cfg.ShardID, n.pipeline.SyncPages
	if scope.scoped {
		hint = scope.shard
	}
	if net == n.cfg.Backbone {
		pages = n.counters.BackboneSyncPages
	}
	key := scope.cursorKey(peer)
	// One pager per cursor: a second one (the background orphan repair
	// beside an operator's SyncAll, two reconcile rounds) would fetch,
	// decode and verify the same pages over again. It waits, and then
	// pages only what the first left — usually nothing.
	turn := n.turnFor(key)
	turn.Lock()
	defer turn.Unlock()

	type fetched struct {
		reply gossip.Message
		err   error
	}
	// fetch requests the page at cursor in the background; the request in
	// flight when syncFrom returns is cancelled and waited for.
	ctx, cancel := context.WithCancel(ctx)
	var inFlight chan fetched
	fetch := func(cursor uint64) {
		inFlight = make(chan fetched, 1)
		go func(out chan<- fetched) {
			reply, err := net.Request(ctx, peer, gossip.Message{
				Type:   gossip.MsgSyncRequest,
				Have:   n.recentHave(),
				Offset: cursor,
				Shard:  uint64(scope.shard),
				Scoped: scope.scoped,
			})
			out <- fetched{reply, err}
		}(inFlight)
	}
	defer func() {
		cancel()
		if inFlight != nil {
			<-inFlight
		}
	}()

	cursor := n.cursorFor(key)
	clean := true
	fetch(cursor)
	for page := 0; page < maxSyncPages; page++ {
		got := <-inFlight
		inFlight = nil
		reply := got.reply
		if got.err != nil || reply.Type != gossip.MsgSyncResponse || ctx.Err() != nil {
			return
		}
		if reply.Total < cursor {
			// The peer's ledger shrank past our cursor (restart or
			// snapshot compaction): rewind and re-page. Nothing was
			// requested beyond this reply, so nothing stale is in flight.
			cursor = 0
			clean = true
			n.setCursor(key, 0)
			fetch(0)
			continue
		}
		advanced := reply.Offset > cursor
		if advanced && reply.More && page+1 < maxSyncPages {
			fetch(reply.Offset)
		}
		pages.Inc()
		if n.admitGossipBatch(ctx, peer, reply.TxData, false, hint) > 0 {
			// The page had admissions we could not complete — usually a
			// difficulty check against a still-stale credit view, or an
			// orphan whose parent lives on another peer. The in-call
			// cursor keeps walking so the rest of this sync proceeds,
			// but the persisted cursor stays at the first dirty page:
			// the next syncFrom re-offers it, restoring the self-healing
			// property of the old full-diff exchange at paged cost.
			clean = false
		}
		if !advanced {
			// No forward progress: a confused peer must not spin us.
			return
		}
		cursor = reply.Offset
		if clean {
			n.setCursor(key, cursor)
		}
		if !reply.More {
			return
		}
	}
}

// SyncAll requests missing history from every peer — used by a gateway
// joining an existing deployment.
func (n *FullNode) SyncAll(ctx context.Context) {
	if n.cfg.Network == nil {
		return
	}
	for _, peer := range n.cfg.Network.Peers() {
		n.syncFrom(ctx, n.cfg.Network, peer, wholeLedger)
	}
}

// checkQuality runs the configured validator over a plaintext data
// payload and records any violations against the sender.
func (n *FullNode) checkQuality(rec inflight, now time.Time) {
	if n.cfg.Quality == nil || rec.Kind() != txn.KindData {
		return
	}
	env, err := dataauth.Parse(rec.Payload())
	if err != nil || env.Sensitive {
		return // opaque to the gateway: the key holder audits it
	}
	sender := rec.Sender()
	for _, v := range n.cfg.Quality.Check(sender, env.Body) {
		n.counters.QualityViolations.Inc()
		n.engine.Ledger().RecordMalicious(sender, core.EventRecord{
			Behaviour: core.BehaviourProtocol,
			At:        now,
			Evidence:  []hashutil.Hash{rec.id},
			Detail:    v.Error(),
		})
	}
}
