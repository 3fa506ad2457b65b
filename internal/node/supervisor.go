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
// watchdog that restarts a node whose journal poisoned (with capped
// exponential backoff), periodic state + journal compaction, and the
// health snapshot behind the RPC server's /healthz.
//
// The supervised unit is (network attachment + node + journal),
// constructed fresh on every (re)start by the Build closure — a
// restart is a real restart, re-replaying the durable journal into a
// fresh ledger, not a reuse of possibly-diverged in-memory state.
//
// mu serializes the transitions (Start, Stop, Kill and the watchdog's
// restart) and nothing else: the node lives in an atomic pointer, which
// every transition clears before it tears the node down, so Node, Ready
// and Health answer at once, mid-drain or mid-replay included. Gateway
// calls are the one reader that waits: see supervisedGateway.node.
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

	mu     sync.Mutex
	stopCh chan struct{} // non-nil while the loops run; Stop/Kill close it

	node     atomic.Pointer[FullNode] // nil while down
	replayed atomic.Int64
	startErr atomic.Value // string: why the last start attempt failed, "" once one succeeds
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
	// when FS is nil). Empty runs the node memory-only, and no watchdog
	// then runs: it guards the journal alone.
	PersistPath string
	FS          chaos.FS

	// WatchInterval is the watchdog probe period; zero disables the
	// watchdog (Start/Stop/Kill still work).
	WatchInterval time.Duration

	// CompactKeep, when positive, runs Compact(CompactKeep) once per
	// grid step of its cutoff: half of CompactKeep raised to the credit
	// window ΔT.
	CompactKeep time.Duration
}

// The restart backoff: the first retry of a failed restart waits
// restartBackoffMin, doubling per consecutive failure up to
// restartBackoffMax. The watchdog never gives up: a node that cannot start
// keeps retrying at that pace, with the reason in Health's StartError.
const (
	restartBackoffMin = 100 * time.Millisecond
	restartBackoffMax = 5 * time.Second
)

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
	Replayed int             `json:"replayed"`
	Journal  ComponentHealth `json:"journal"`
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
	return &Supervisor{cfg: cfg, fs: fs}, nil
}

// Start builds the node, replays the journal, marks the supervisor
// ready, and launches the watchdog and compaction loops. It refuses
// while the loops run, a watchdog retrying a failed restart included.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopCh != nil {
		return ErrSupervisorRunning
	}
	if err := s.startLocked(); err != nil {
		return err
	}
	s.stopCh = make(chan struct{})
	if s.cfg.WatchInterval > 0 && s.cfg.PersistPath != "" {
		s.wg.Add(1)
		go s.watch(s.stopCh)
	}
	if s.cfg.CompactKeep > 0 {
		s.wg.Add(1)
		go s.compactLoop(s.stopCh, s.node.Load().compactWindow(s.cfg.CompactKeep)/2)
	}
	return nil
}

// startLocked builds and wires one supervised unit, and keeps the error
// it returns for Health: the watchdog retries a failed restart and has
// nobody to return it to. Caller holds mu.
func (s *Supervisor) startLocked() (err error) {
	defer func() {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		s.startErr.Store(msg)
	}()
	n, err := s.cfg.Build()
	if err != nil {
		return fmt.Errorf("build supervised node: %w", err)
	}
	if s.cfg.PersistPath != "" {
		replayed, err := n.EnablePersistenceFS(s.fs, s.cfg.PersistPath)
		if err != nil {
			closeUnit(context.Background(), n, false)
			return fmt.Errorf("supervised persistence: %w", err)
		}
		s.replayed.Store(int64(replayed))
	}
	s.node.Store(n)
	return nil
}

// closeUnit dismantles one supervised unit that is no longer published.
// Graceful: every admission accepted while the node was up is flushed to
// the peers that can still hear it before the pipeline closes and the
// network detaches. Crash: the network vanishes first (peers see a dead
// machine) and nothing flushes. The journal closes last either way.
func closeUnit(ctx context.Context, n *FullNode, graceful bool) {
	net := n.Network()
	if graceful {
		_ = n.FlushBroadcast(ctx)
	} else if net != nil {
		_ = net.Close()
		net = nil
	}
	_ = n.Close()
	if net != nil {
		_ = net.Close()
	}
	if bb := n.Backbone(); bb != nil {
		_ = bb.Close()
	}
	_ = n.ClosePersistence() // ErrNotPersistent on a memory-only node
}

// Stop gracefully drains and stops the node and the supervisor loops.
// ctx bounds the drain. Safe to call when already stopped.
func (s *Supervisor) Stop(ctx context.Context) error {
	s.stop(ctx, true)
	return nil
}

// Kill simulates a crash: the node is torn down abruptly — no drain,
// no flush — and the supervisor loops stop. The journal keeps exactly
// what Append had already synced. The chaos soak uses this to model
// machine loss.
func (s *Supervisor) Kill() { s.stop(context.Background(), false) }

// stop ends the loops and tears the node down, drained or as a crash.
func (s *Supervisor) stop(ctx context.Context, graceful bool) {
	s.mu.Lock()
	if s.stopCh != nil {
		close(s.stopCh)
		s.stopCh = nil
	}
	if n := s.node.Swap(nil); n != nil {
		closeUnit(ctx, n, graceful)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Node returns the currently supervised node (nil when down). Callers
// holding the pointer across a restart see the old, closed node; the
// RPC layer re-resolves per request via WithNodeSource.
func (s *Supervisor) Node() *FullNode { return s.node.Load() }

// Ready reports the readiness gate: true only while a node is up. A
// drain or a restart clears it before it touches the node.
func (s *Supervisor) Ready() bool { return s.node.Load() != nil }

// Restarts returns the number of watchdog-initiated restarts.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// Health returns the health snapshot /healthz serves.
func (s *Supervisor) Health() Health {
	n := s.node.Load()
	h := Health{
		State:    "stopped",
		Restarts: s.restarts.Load(),
		Replayed: int(s.replayed.Load()),
	}
	h.StartError, _ = s.startErr.Load().(string)
	switch {
	case n == nil:
		h.Journal = ComponentHealth{OK: false, Detail: "node down"}
		return h
	case s.cfg.PersistPath == "":
		h.Journal = ComponentHealth{OK: true, Detail: "memory-only"}
	case n.JournalHealthy():
		_, gen, _ := n.JournalStats()
		h.Journal = ComponentHealth{OK: true, Detail: fmt.Sprintf("generation %d", gen)}
	default:
		detail := "journal unhealthy"
		if err := n.JournalError(); err != nil {
			detail = fmt.Sprintf("journal poisoned: %v", err)
		}
		h.Journal = ComponentHealth{OK: false, Detail: detail}
	}
	h.State, h.Ready = "running", true
	h.Memory = n.MemoryStats()
	return h
}

// ErrNodeDown reports a Gateway call while the node behind it is down:
// stopped, killed, or between failed watchdog restarts.
var ErrNodeDown = errors.New("supervised node is down")

// Gateway returns a node.Gateway view that re-resolves the supervised
// node on every call, so light-node and RPC bindings survive watchdog
// restarts instead of holding a pointer to a dead instance.
func (s *Supervisor) Gateway() Gateway { return supervisedGateway{s} }

type supervisedGateway struct{ s *Supervisor }

var _ Gateway = supervisedGateway{}

// node resolves the supervised node for one Gateway call. The pointer is
// only nil while a transition holds mu or while the node is really down,
// so on nil the call waits out the transition: a device posting during a
// watchdog restart lands on the fresh node instead of failing.
func (g supervisedGateway) node() *FullNode {
	if n := g.s.node.Load(); n != nil {
		return n
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.node.Load()
}

func (g supervisedGateway) TipsForApproval() (trunk, branch hashutil.Hash, err error) {
	n := g.node()
	if n == nil {
		return hashutil.Hash{}, hashutil.Hash{}, ErrNodeDown
	}
	return n.TipsForApproval()
}

func (g supervisedGateway) DifficultyFor(addr identity.Address) int {
	n := g.node()
	if n == nil {
		return 0
	}
	return n.DifficultyFor(addr)
}

func (g supervisedGateway) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	n := g.node()
	if n == nil {
		return nil, ErrNodeDown
	}
	return n.GetTransaction(id)
}

func (g supervisedGateway) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	n := g.node()
	if n == nil {
		return tangle.Info{}, ErrNodeDown
	}
	return n.Submit(ctx, t)
}

func (g supervisedGateway) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	n := g.node()
	if n == nil {
		return nil, ErrNodeDown
	}
	return n.TransactionsByKind(kind, offset)
}

// watch probes the supervised node's journal every WatchInterval and
// restarts the node once it has poisoned, with capped exponential backoff.
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
		if n := s.node.Load(); n == nil || n.JournalHealthy() {
			continue
		}
		if !s.restart(stopCh) {
			return
		}
	}
}

// restart tears the sick node down and brings a fresh one up, backing
// off between failed attempts, for as long as it takes. It returns true
// once a fresh node is up, false once stopCh closes: each attempt checks
// it under mu, so no restart begins after Stop or Kill.
func (s *Supervisor) restart(stopCh chan struct{}) bool {
	backoff := restartBackoffMin
	for {
		s.mu.Lock()
		select {
		case <-stopCh:
			s.mu.Unlock()
			return false
		default:
		}
		s.restarts.Add(1)
		// Teardown is non-graceful: a poisoned journal's pipeline may
		// hold unjournaled admissions, but flushing them to peers would
		// advertise state this node loses on replay.
		if n := s.node.Swap(nil); n != nil {
			closeUnit(context.Background(), n, false)
		}
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

// compactLoop runs Compact once per step of its cutoff's grid.
func (s *Supervisor) compactLoop(stopCh chan struct{}, step time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(step)
	defer ticker.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-ticker.C:
		}
		n := s.node.Load()
		if n == nil {
			continue
		}
		// A failed rewrite keeps the old segment, retried next step, or
		// poisons the journal, which the watchdog restarts.
		_, _, _ = n.Compact(s.cfg.CompactKeep)
	}
}
