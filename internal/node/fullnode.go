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
	Accepted          metrics.Counter
	Rejected          metrics.Counter
	RateLimited       metrics.Counter
	Unauthorized      metrics.Counter
	StaleAuthRejects  metrics.Counter
	Quarantined       metrics.Counter
	QuarantineDrops   metrics.Counter
	QuarantineRepairs metrics.Counter
	GossipIn          metrics.Counter
	JournalErrors     metrics.Counter
	QualityViolations metrics.Counter
	// Backbone reconciliation: scoped control-plane pages pulled from
	// backbone peers, and remote credit records/events folded into the
	// local ledger.
	BackboneSyncPages  metrics.Counter
	CreditTxsMerged    metrics.Counter
	CreditEventsMerged metrics.Counter
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

	// repair is the orphan-repair worker (see repairOrphans); nil when
	// Network is nil.
	repair *orphanRepair

	// The journal handles are swapped by EnablePersistenceFS and
	// ClosePersistence and read on every attach and submission.
	journal atomic.Pointer[store.Log]       // nil unless EnablePersistence was called
	coldIdx atomic.Pointer[store.ColdIndex] // durable pruned-ID index; nil when memory-only

	// replayGate holds admission (read side: Submit, admitGossipBatch)
	// while EnablePersistenceFS replays the journal (write side).
	replayGate sync.RWMutex

	limiterMu sync.Mutex
	limiter   map[identity.Address]*rateBucket

	// cursors holds the sync cursors by cursorID: how far into each peer's
	// attachment order, or one namespace's, this node has already paged.
	cursors sync.Map

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
	ErrTimestampAhead     = errors.New("timestamp is further ahead of the node's clock than any honest clock runs")
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
		quar:     newQuarantine(quarantineCap, quarantineTTL),
		limiter:  make(map[identity.Address]*rateBucket),
	}
	n.verify = newVerifyStage(&n.pipeline)
	n.submission, n.relayed = n.edges()
	tg.Observe(tangle.ObserverFunc(n.onTangleEvent))
	if conf.Network != nil {
		n.bcast = newBroadcaster(n)
		n.repair = newOrphanRepair()
		go n.repairOrphans()
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
func (n *FullNode) CountersView() *Counters { return &n.counters }

// Clock returns the node's time source.
func (n *FullNode) Clock() clock.Clock { return n.cfg.Clock }

// onTangleEvent routes ledger events. Events are delivered serialized
// in ledger order after the tangle lock is released (possibly on a
// concurrent submitter's goroutine), so this must stay cheap and only
// touch concurrency-safe state. The same order is why the journal is fed
// from here (journalAttached), and why a confirmed transfer settles here:
// the token ledger holds one that confirms ahead of its predecessor.
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
	case tangle.EventConfirmed:
		if ev.Txn.Kind() == txn.KindTransfer {
			// Settlement can legitimately fail (e.g. overdraw after an
			// earlier conflicting spend settled); the ledger stays
			// consistent either way.
			_ = n.tokens.Apply(ev.Txn, ev.Tx)
		}
	}
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
	return n.tangle.SelectTips(tangle.StrategyUniform)
}

// GetTransaction returns an attached transaction by ID, for light-node
// tip validation.
func (n *FullNode) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	return n.tangle.Get(id)
}

// TransactionsByKind pages through attached transactions of one kind,
// each decoded into a copy of the caller's own; nil past the end.
func (n *FullNode) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	var out []*txn.Transaction
	for _, enc := range n.tangle.EncodedByKind(kind, offset) {
		t, err := txn.Decode(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
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
func (n *FullNode) Pipeline() *PipelineMetrics { return &n.pipeline }

// Network returns the node's gossip attachment (nil when the node runs
// standalone). The Supervisor closes it after the node during a
// graceful stop, and before the node when simulating a crash.
func (n *FullNode) Network() gossip.Network { return n.cfg.Network }

// Backbone returns the node's inter-gateway backbone attachment (nil
// for single-tier deployments). Like Network, the Supervisor closes it
// during teardown so a rebuilt node can rejoin under the same name.
func (n *FullNode) Backbone() gossip.Network { return n.cfg.Backbone }

// LedgerMetrics exposes the tangle's anchored tip-selection gauges
// (anchor height/count, walk lengths, fallback counts).
func (n *FullNode) LedgerMetrics() *tangle.Metrics { return n.tangle.Metrics() }

// Close drains and stops the broadcast pipeline and the orphan-repair
// worker. Read paths and local admission keep working; subsequent
// Submits attach locally but are no longer gossiped. Safe to call more
// than once.
func (n *FullNode) Close() error {
	if n.bcast != nil {
		n.bcast.close()
	}
	if n.repair != nil {
		n.repair.cancel()
		<-n.repair.done
	}
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
// relay and journal replay: write the credit record, attach, check data
// quality, observe an authorization list. The state it leaves is a pure
// function of WHAT was attached (Eqns 2–5), which is why replay shares it.
// at is the admission instant: the clock at a live edge, the record's own
// timestamp on replay. attach is AttachShard live; on replay it restores
// on a snapshot boundary.
func (n *FullNode) commit(rec inflight, at time.Time,
	attach func(txn.View, hashutil.Hash, uint32) (tangle.Info, error)) (tangle.Info, error) {
	sender := rec.Sender()

	// Credit accounting: the sender earns a valid-transaction record at
	// initial weight 1; approvals raise it via EventApproved. The record
	// must exist BEFORE Attach makes the transaction approvable — a
	// concurrent admission can approve it the instant Attach returns,
	// and UpdateWeight against a not-yet-recorded transaction would be
	// silently dropped.
	//
	// The record is filed under the transaction's own timestamp
	// (recordedAt), not its arrival: arrival stamping made a node's credit
	// view, and with it its difficulty demand, depend on when each
	// transaction arrived, so a node that replayed or synced diverged
	// from the peers that saw the history live.
	recordAt := recordedAt(rec.View, at)
	n.engine.Ledger().RecordTransaction(sender, rec.id, 1, recordAt)

	info, err := attach(rec.View, rec.id, rec.shard)
	if err != nil {
		if !errors.Is(err, tangle.ErrDuplicate) {
			// A duplicate keeps what the first copy recorded (both are
			// idempotent); anything else never entered the ledger.
			n.engine.Ledger().RemoveTransaction(sender, rec.id)
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
	// live view backward. Its window entry is filed like the credit
	// record above, so replay and sync prune the window alike.
	if rec.Kind() == txn.KindAuthorization {
		if _, lerr := n.registry.Observe(rec.View, recordAt); lerr != nil {
			// The list is on-ledger but invalid (undecodable, forged
			// issuer); ledger state is unaffected.
			err = fmt.Errorf("observe authorization list: %w: %v", errListInvalid, lerr)
		}
	}
	return info, err
}

// recordedAt is the instant a credit record or an evidence-window entry
// is filed under: the transaction's embedded timestamp, clamped to now.
// The clamp stays because the live edges admit a timestamp up to
// maxClockSkew ahead of their clock, and a post-dated transaction would
// otherwise keep its credit in the window that much past its time.
func recordedAt(v txn.View, now time.Time) time.Time {
	if ts := v.Timestamp(); !ts.After(now) {
		return ts
	}
	return now
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
		n.admitGossipBatch(from, msg.TxData, true, hint)
		return &batchAck, nil
	case gossip.MsgSyncRequest:
		return n.serveSyncPage(msg), nil
	case gossip.MsgCreditRequest:
		return n.serveCreditPage(msg)
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
// a transaction this node lacks something for — an unattached parent, or
// an authorization list its evidence verdict needs — parks in the
// quarantine and is retried when later arrivals attach (kickQuarantine).
// Peers keep several batches in flight, so what is missing is usually one
// batch behind, not lost; on the relay path (repair set) a pull for what
// stays missing runs in the background (reportOrphans).
//
// Authorization lists change who verifies as authorized, so they are
// segment boundaries: the batch is verified and attached in runs, with
// each authorization list verified and admitted on its own in between,
// preserving the old one-at-a-time semantics for control-plane traffic.
//
// attached counts the batch's own transactions that attached (not what a
// quarantine kick attached meanwhile); failed counts the novel, decodable
// ones that did NOT end up attached (verification rejects, parked
// orphans, attach failures other than duplicates). pull stops repeating
// on the first and uses the second to decide whether a sync page may be
// marked consumed: a transaction rejected today — typically because this
// node's credit view lags and the difficulty check disagrees — may verify
// cleanly once more of the ledger has arrived, so its page must be
// re-offered by a later pull.
func (n *FullNode) admitGossipBatch(from string, raw [][]byte, repair bool, hint uint32) (attached, failed int) {
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
				attached++
				continue
			case relayDuplicate:
				continue
			case relayOrphan:
				// Park rather than drop: the missing parent is usually right
				// behind (a later batch, or later in the same sync), its
				// descendants certainly are, and dropping is the orphan
				// cascade behind the old revocation-storm flake. A parked
				// orphan is no reject: parkQuarantine counts its first sight
				// as Quarantined, and only a drop from the quarantine loses
				// it. An authorization list takes effect in the registry at
				// once: it is manager-signed and verified, list sequences
				// never roll back, and the manager's publish waits only for
				// the fan-out, so a revocation must bind this gateway's
				// submission edge from the moment it is seen, not from the
				// moment its parents happen to arrive. (Attach observes the
				// list again, which is then a no-op. An undecodable list
				// fails here as it will when it attaches, which is where it
				// is counted.)
				if rec.Kind() == txn.KindAuthorization {
					_, _ = n.registry.Observe(rec.View, recordedAt(rec.View, now))
				}
				fallthrough
			case relayUnresolved:
				// An evidence gap is a missing list: a ledger transaction
				// like a missing parent, parked and repaired the same way.
				n.parkQuarantine(rec, now)
				orphans = append(orphans, rec.id)
			case relayEarly: // nothing to pull: it waits for this node's clock
				n.parkQuarantine(rec, now)
			}
			failed++ // a Sybil, a parked one, or the attach failed: pull keeps the page dirty
		}
		start = end
	}

	// Whatever attached may be the parent a parked transaction waits for.
	n.kickQuarantine(now)
	if repair && len(orphans) > 0 {
		n.reportOrphans(from, orphans)
	}
	return attached, failed
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
