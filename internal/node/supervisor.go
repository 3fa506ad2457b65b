package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Supervisor owns a FullNode's lifecycle: ordered start/stop, a
// watchdog that restarts a node whose journal poisoned or whose
// transport died (with capped exponential backoff), periodic state +
// journal compaction, and the health snapshot behind the RPC server's
// /healthz and /readyz endpoints.
//
// The supervised unit is (network attachment + node + journal),
// constructed fresh on every (re)start by the Build closure — a
// restart is a real restart, re-replaying the durable journal into a
// fresh ledger, not a reuse of possibly-diverged in-memory state.
//
// Ordering invariants:
//
//   - Graceful stop: readiness drops first (load balancers stop
//     routing), the broadcast pipeline flushes (in-flight admissions
//     reach peers), the pipeline closes, the network detaches, the
//     journal closes last (everything admitted is journaled by then).
//   - Crash stop (Kill): the network dies first — exactly what a
//     machine loss looks like to peers — then the pipeline and journal
//     are abandoned without flushing.
type Supervisor struct {
	cfg SupervisorConfig
	fs  chaos.FS

	mu       sync.Mutex
	node     *FullNode
	state    SupervisorState
	replayed int
	stopCh   chan struct{} // closes when Stop/Kill tears the loops down
	// startErr is why the last start attempt failed; nil once one succeeds.
	startErr error

	ready    atomic.Bool
	restarts atomic.Int64

	wg sync.WaitGroup // watchdog + compaction loops
}

// SupervisorConfig configures a Supervisor.
type SupervisorConfig struct {
	// Build constructs the node and its network attachment. Called on
	// every (re)start; it must return a fresh node each time (the
	// previous one's network has been closed).
	Build func() (*FullNode, error)

	// PersistPath enables journaling at this path on FS (chaos.OS()
	// when FS is nil). Empty runs the node memory-only — the watchdog
	// then only guards the transport.
	PersistPath string
	FS          chaos.FS

	// WatchInterval is the watchdog probe period; zero disables the
	// watchdog (Start/Stop/Kill still work).
	WatchInterval time.Duration

	// CompactEvery, when positive, runs Compact(CompactKeep) +
	// CompactJournal on that period.
	CompactEvery time.Duration
	CompactKeep  time.Duration
}

// The restart backoff: the first retry of a failed restart waits
// restartBackoffMin, doubling per consecutive failure up to
// restartBackoffMax. The watchdog never gives up: a node that cannot start
// keeps retrying at that pace, with the reason in Health's StartError.
const (
	restartBackoffMin = 100 * time.Millisecond
	restartBackoffMax = 5 * time.Second
)

// SupervisorState enumerates the lifecycle states.
type SupervisorState int32

const (
	StateStopped SupervisorState = iota
	StateRunning
	StateDraining
)

// String implements fmt.Stringer.
func (s SupervisorState) String() string {
	switch s {
	case StateStopped:
		return "stopped"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ComponentHealth is one subsystem's verdict in a health snapshot.
type ComponentHealth struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Health is the supervisor's observable state, served by /healthz.
type Health struct {
	State    string `json:"state"`
	Ready    bool   `json:"ready"`
	Restarts int64  `json:"restarts"`
	// Replayed is the journal record count recovered at the last start.
	Replayed  int             `json:"replayed"`
	Journal   ComponentHealth `json:"journal"`
	Transport ComponentHealth `json:"transport"`
	Pipeline  ComponentHealth `json:"pipeline"`
	// Memory is the node's footprint: the quantities the hot/cold split
	// keeps O(frontier) (zero value while the node is down).
	Memory MemoryStats `json:"memory"`
	// StartError is why the last start or watchdog restart failed (a
	// refused journal, a build error); empty once a start succeeds.
	StartError string `json:"start_error,omitempty"`
}

// ErrSupervisorRunning reports a Start on a running supervisor.
var ErrSupervisorRunning = errors.New("supervisor already running")

// NewSupervisor validates cfg and returns an idle supervisor; call
// Start to bring the node up.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Build == nil {
		return nil, errors.New("supervisor requires a Build closure")
	}
	fs := cfg.FS
	if fs == nil {
		fs = chaos.OS()
	}
	return &Supervisor{cfg: cfg, fs: fs, state: StateStopped}, nil
}

// Start builds the node, replays the journal, marks the supervisor
// ready, and launches the watchdog and compaction loops.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.node != nil {
		return ErrSupervisorRunning
	}
	if err := s.startLocked(); err != nil {
		return err
	}
	s.stopCh = make(chan struct{})
	if s.cfg.WatchInterval > 0 {
		s.wg.Add(1)
		go s.watch(s.stopCh)
	}
	if s.cfg.CompactEvery > 0 {
		s.wg.Add(1)
		go s.compactLoop(s.stopCh)
	}
	return nil
}

// startLocked builds and wires one supervised unit, and keeps the error
// it returns for Health: the watchdog retries a failed restart and has
// nobody to return it to. Caller holds mu.
func (s *Supervisor) startLocked() (err error) {
	defer func() { s.startErr = err }()
	n, err := s.cfg.Build()
	if err != nil {
		return fmt.Errorf("build supervised node: %w", err)
	}
	if s.cfg.PersistPath != "" {
		replayed, err := n.EnablePersistenceFS(s.fs, s.cfg.PersistPath)
		if err != nil {
			_ = n.Close()
			if net := n.Network(); net != nil {
				_ = net.Close()
			}
			if bb := n.Backbone(); bb != nil {
				_ = bb.Close()
			}
			return fmt.Errorf("supervised persistence: %w", err)
		}
		s.replayed = replayed
	}
	s.node = n
	s.state = StateRunning
	s.ready.Store(true)
	return nil
}

// teardownLocked dismantles the supervised unit. Caller holds mu.
func (s *Supervisor) teardownLocked(ctx context.Context, graceful bool) {
	n := s.node
	if n == nil {
		return
	}
	s.ready.Store(false)
	if graceful {
		s.state = StateDraining
		// Flush before close: every admission accepted while we were
		// ready reaches the peers that can still hear us.
		_ = n.FlushBroadcast(ctx)
		_ = n.Close()
		if net := n.Network(); net != nil {
			_ = net.Close()
		}
	} else {
		// Crash: the network vanishes first (peers see a dead machine),
		// nothing flushes.
		if net := n.Network(); net != nil {
			_ = net.Close()
		}
		_ = n.Close()
	}
	if bb := n.Backbone(); bb != nil {
		_ = bb.Close()
	}
	if s.cfg.PersistPath != "" {
		_ = n.ClosePersistence()
	}
	s.node = nil
}

// Stop gracefully drains and stops the node and the supervisor loops.
// ctx bounds the drain. Safe to call when already stopped.
func (s *Supervisor) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.stopCh != nil {
		close(s.stopCh)
		s.stopCh = nil
	}
	s.teardownLocked(ctx, true)
	s.state = StateStopped
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Kill simulates a crash: the node is torn down abruptly — no drain,
// no flush — and the supervisor loops stop. The journal keeps exactly
// what Append had already synced. The chaos soak uses this to model
// machine loss.
func (s *Supervisor) Kill() {
	s.mu.Lock()
	if s.stopCh != nil {
		close(s.stopCh)
		s.stopCh = nil
	}
	s.teardownLocked(context.Background(), false)
	s.state = StateStopped
	s.mu.Unlock()
	s.wg.Wait()
}

// Node returns the currently supervised node (nil when down). Callers
// holding the pointer across a restart see the old, closed node; the
// RPC layer re-resolves per request via WithNodeSource.
func (s *Supervisor) Node() *FullNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// State returns the lifecycle state.
func (s *Supervisor) State() SupervisorState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Ready reports the readiness gate: true only while the node is up and
// not draining.
func (s *Supervisor) Ready() bool { return s.ready.Load() }

// Restarts returns the number of watchdog-initiated restarts.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// Health returns the health snapshot /healthz serves.
func (s *Supervisor) Health() Health {
	s.mu.Lock()
	n := s.node
	state := s.state
	replayed := s.replayed
	startErr := s.startErr
	s.mu.Unlock()

	h := Health{
		State:    state.String(),
		Ready:    s.ready.Load(),
		Restarts: s.restarts.Load(),
		Replayed: replayed,
	}
	if startErr != nil {
		h.StartError = startErr.Error()
	}
	if n == nil {
		down := ComponentHealth{OK: false, Detail: "node down"}
		h.Journal, h.Transport, h.Pipeline = down, down, down
		return h
	}
	if s.cfg.PersistPath == "" {
		h.Journal = ComponentHealth{OK: true, Detail: "memory-only"}
	} else if n.JournalHealthy() {
		_, gen, _ := n.JournalStats()
		h.Journal = ComponentHealth{OK: true, Detail: fmt.Sprintf("generation %d", gen)}
	} else {
		detail := "journal unhealthy"
		if err := n.JournalError(); err != nil {
			detail = fmt.Sprintf("journal poisoned: %v", err)
		}
		h.Journal = ComponentHealth{OK: false, Detail: detail}
	}
	if n.TransportHealthy() {
		h.Transport = ComponentHealth{OK: true}
	} else {
		h.Transport = ComponentHealth{OK: false, Detail: "broadcast pipeline closed"}
	}
	// Nothing in the pipeline refuses work — a slow peer's full queue
	// drops, counted — so its verdict reports and never fails.
	p := n.Pipeline()
	journal := p.JournalLatency.Summarize()
	h.Pipeline = ComponentHealth{OK: true, Detail: fmt.Sprintf(
		"%d batches in flight, %d window stalls, %d peer drops, journal barrier median %v p95 %v over %d requests",
		p.InFlight.Value(), p.WindowStalls.Value(), p.PeerDrops.Value(), journal.Median, journal.P95, journal.Count)}
	h.Memory = n.MemoryStats()
	return h
}

// ErrNodeDown reports a Gateway call while the supervised node is
// down (crashed, restarting, or stopped).
var ErrNodeDown = errors.New("supervised node is down")

// Gateway returns a node.Gateway view that re-resolves the supervised
// node on every call, so light-node and RPC bindings survive watchdog
// restarts instead of holding a pointer to a dead instance.
func (s *Supervisor) Gateway() Gateway { return supervisedGateway{s} }

type supervisedGateway struct{ s *Supervisor }

var _ Gateway = supervisedGateway{}

func (g supervisedGateway) TipsForApproval() (trunk, branch hashutil.Hash, err error) {
	n := g.s.Node()
	if n == nil {
		return hashutil.Hash{}, hashutil.Hash{}, ErrNodeDown
	}
	return n.TipsForApproval()
}

func (g supervisedGateway) DifficultyFor(addr identity.Address) int {
	n := g.s.Node()
	if n == nil {
		return 0
	}
	return n.DifficultyFor(addr)
}

func (g supervisedGateway) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	n := g.s.Node()
	if n == nil {
		return nil, ErrNodeDown
	}
	return n.GetTransaction(id)
}

func (g supervisedGateway) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	n := g.s.Node()
	if n == nil {
		return tangle.Info{}, ErrNodeDown
	}
	return n.Submit(ctx, t)
}

func (g supervisedGateway) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	n := g.s.Node()
	if n == nil {
		return nil, ErrNodeDown
	}
	return n.TransactionsByKind(kind, offset)
}

// healthyProbe is the watchdog's restart predicate: restart when the
// journal poisoned (persistent nodes) or the transport died under us.
func (s *Supervisor) healthyProbe(n *FullNode) bool {
	if s.cfg.PersistPath != "" && !n.JournalHealthy() {
		return false
	}
	return n.TransportHealthy()
}

// watch probes the supervised node every WatchInterval and restarts it
// on failure with capped exponential backoff.
func (s *Supervisor) watch(stopCh chan struct{}) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.WatchInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		n, state := s.node, s.state
		s.mu.Unlock()
		if state != StateRunning || n == nil || s.healthyProbe(n) {
			continue
		}
		if !s.restart(stopCh) {
			return
		}
	}
}

// restart tears the sick node down and brings a fresh one up, backing
// off between failed attempts, for as long as it takes. It returns true
// once a fresh node is up, false once stopCh closes.
func (s *Supervisor) restart(stopCh chan struct{}) bool {
	backoff := restartBackoffMin
	for {
		s.restarts.Add(1)
		s.mu.Lock()
		// Teardown is non-graceful: a poisoned journal's pipeline may
		// hold unjournaled admissions, but flushing them to peers would
		// advertise state this node loses on replay.
		s.teardownLocked(context.Background(), false)
		err := s.startLocked()
		s.mu.Unlock()
		if err == nil {
			return true
		}
		select {
		case <-stopCh:
			return false
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, restartBackoffMax)
	}
}

// compactLoop periodically snapshots in-memory state and rewrites the
// journal to match.
func (s *Supervisor) compactLoop(stopCh chan struct{}) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.CompactEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		n, state := s.node, s.state
		s.mu.Unlock()
		if state != StateRunning || n == nil {
			continue
		}
		n.Compact(s.cfg.CompactKeep)
		if s.cfg.PersistPath != "" {
			_, _ = n.CompactJournal()
		}
	}
}
