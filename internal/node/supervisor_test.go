package node_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// supervisedGatewayConfig builds a Supervisor for one gateway that
// re-joins bus under name on every (re)start and journals to fs.
func supervisedGatewayConfig(t *testing.T, bus *gossip.Bus, name string, mgrPub identity.PublicKey, fs chaos.FS) node.SupervisorConfig {
	t.Helper()
	gwKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return node.SupervisorConfig{
		Build: func() (*node.FullNode, error) {
			net, err := bus.Join(name)
			if err != nil {
				return nil, err
			}
			n, err := node.NewFull(node.FullConfig{
				Key:        gwKey,
				Role:       identity.RoleGateway,
				ManagerPub: mgrPub,
				Credit:     testParams(),
				Network:    net,
			})
			if err != nil {
				net.Close()
				return nil, err
			}
			return n, nil
		},
		PersistPath: name + ".journal",
		FS:          fs,
	}
}

func TestSupervisorLifecycleAndDrain(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(1)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-sup", dep.mgrKey.Public(), fs)
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Ready() || sup.State() != node.StateStopped {
		t.Fatal("idle supervisor claims readiness")
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); !errors.Is(err, node.ErrSupervisorRunning) {
		t.Fatalf("double start err = %v", err)
	}
	if !sup.Ready() || sup.State() != node.StateRunning {
		t.Fatalf("state=%v ready=%v after start", sup.State(), sup.Ready())
	}
	h := sup.Health()
	if !h.Journal.OK || !h.Transport.OK || !h.Pipeline.OK || !h.Ready {
		t.Fatalf("health after start: %+v", h)
	}

	// Submissions through the supervisor's gateway delegate land and
	// are journaled.
	device := newTestDevice(t, sup.Gateway())
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dep.mgr.Node().FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}
	const readings = 5
	for i := 0; i < readings; i++ {
		if _, err := device.PostReading(ctx, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
	}

	if err := sup.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if sup.Ready() || sup.State() != node.StateStopped || sup.Node() != nil {
		t.Fatal("supervisor still live after stop")
	}
	if _, err := device.PostReading(ctx, []byte("late")); !errors.Is(err, node.ErrNodeDown) {
		t.Fatalf("reading against stopped supervisor err = %v", err)
	}

	// Restart replays the journal: the readings (and the authorization
	// the gateway heard) are back.
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(ctx)
	if h := sup.Health(); h.Replayed < readings {
		t.Fatalf("replayed %d records, want ≥ %d", h.Replayed, readings)
	}
	if _, err := device.PostReading(ctx, []byte("after-restart")); err != nil {
		t.Fatalf("reading after restart: %v", err)
	}
}

func TestSupervisorWatchdogRestartsPoisonedJournal(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(2)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-dog", dep.mgrKey.Public(), fs)
	cfg.WatchInterval = 5 * time.Millisecond
	cfg.BackoffBase = time.Millisecond
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(ctx)

	device := newTestDevice(t, sup.Gateway())
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dep.mgr.Node().FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := device.PostReading(ctx, []byte("pre-fault")); err != nil {
		t.Fatal(err)
	}

	// Poison the journal: the next append's fsync fails. Admission
	// still succeeds (journal errors don't fail the ledger) but the
	// node is now unhealthy, and the watchdog must notice and restart.
	fs.InjectSyncError(nil)
	if _, err := device.PostReading(ctx, []byte("poisoning")); err != nil {
		t.Fatal(err)
	}
	// The watchdog may already have swapped in a fresh node. It counts the
	// restart before installing the node, so read the node first.
	if n := sup.Node(); n != nil && n.JournalHealthy() && sup.Restarts() == 0 {
		t.Fatal("journal still healthy after injected sync failure")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if sup.Restarts() > 0 && sup.Ready() {
			if n := sup.Node(); n != nil && n.JournalHealthy() {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never restarted: restarts=%d health=%+v", sup.Restarts(), sup.Health())
		}
		time.Sleep(time.Millisecond)
	}

	// The restarted node replays the durable prefix and serves traffic.
	if _, err := device.PostReading(ctx, []byte("post-restart")); err != nil {
		t.Fatalf("reading after watchdog restart: %v", err)
	}
}

func TestSupervisorMaxRestartsParksFailed(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(3)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-park", dep.mgrKey.Public(), fs)
	inner := cfg.Build
	started := false
	cfg.Build = func() (*node.FullNode, error) {
		if started {
			return nil, errors.New("scripted build failure")
		}
		started = true
		return inner()
	}
	cfg.WatchInterval = 5 * time.Millisecond
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	cfg.MaxRestarts = 3
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(ctx)

	// Kill the transport out from under the supervisor: unhealthy, and
	// every rebuild fails.
	sup.Node().Close()

	deadline := time.Now().Add(5 * time.Second)
	for sup.State() != node.StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never parked: state=%v restarts=%d", sup.State(), sup.Restarts())
		}
		time.Sleep(time.Millisecond)
	}
	if sup.Ready() {
		t.Fatal("failed supervisor claims readiness")
	}
	if h := sup.Health(); h.State != "failed" || h.Journal.OK {
		t.Fatalf("failed health = %+v", h)
	}
}

// TestSupervisorHealthCarriesTheStartError: the watchdog retries a failed
// restart and returns its error to nobody, so "never became ready" used to
// be all an operator saw. Here the journal a restart finds holds a record
// ahead of its parent; every restart is a replay refusal, the supervisor
// parks failed, and /healthz says why, naming the record — until a start
// succeeds.
func TestSupervisorHealthCarriesTheStartError(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(5)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-refused", dep.mgrKey.Public(), fs)
	cfg.WatchInterval = 5 * time.Millisecond
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	cfg.MaxRestarts = 3
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(ctx)
	if h := sup.Health(); h.StartError != "" {
		t.Fatalf("healthy start reports start error %q", h.StartError)
	}

	// The journal the restarts will find: a record whose parent no journal,
	// genesis or cold index holds. Then the transport dies.
	var unknown hashutil.Hash
	unknown[0] = 0xEE
	orphan := craftTx(dep.mgrKey, txn.KindData, []byte("orphan"), unknown, unknown, time.Now(), testParams().MinDifficulty)
	writeJournal(t, fs, cfg.PersistPath, orphan)
	sup.Node().Close()

	deadline := time.Now().Add(5 * time.Second)
	for sup.State() != node.StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never parked: state=%v restarts=%d", sup.State(), sup.Restarts())
		}
		time.Sleep(time.Millisecond)
	}
	if h := sup.Health(); !strings.Contains(h.StartError, "journal record "+orphan.ID().Short()) {
		t.Fatalf("health of a supervisor whose restarts were all replay refusals = %+v; want the refusal, naming record %s",
			h, orphan.ID().Short())
	}

	if err := fs.Remove(cfg.PersistPath); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("start without the refused journal: %v", err)
	}
	if h := sup.Health(); h.StartError != "" || !h.Ready {
		t.Fatalf("health after a successful start = %+v; want ready and no start error", h)
	}
}

// TestSupervisorGoroutineLeak starts a supervised node on a real TCP
// transport, soaks it briefly, stops it, and asserts the goroutine
// count returns to baseline — pinning FullNode/Supervisor/transport
// Close ordering under -race.
func TestSupervisorGoroutineLeak(t *testing.T) {
	ctx := context.Background()
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	run := func(round int) {
		fs := chaos.NewMemFS(int64(round))
		peer, err := gossip.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		peer.SetHandler(gossip.HandlerFunc(func(string, gossip.Message) (*gossip.Message, error) {
			return &gossip.Message{}, nil
		}))

		sup, err := node.NewSupervisor(node.SupervisorConfig{
			Build: func() (*node.FullNode, error) {
				net, err := gossip.ListenTCP("127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				net.AddPeer(peer.Self())
				n, err := node.NewFull(node.FullConfig{
					Key:        mgrKey,
					Role:       identity.RoleManager,
					ManagerPub: mgrKey.Public(),
					Credit:     testParams(),
					Network:    net,
				})
				if err != nil {
					net.Close()
					return nil, err
				}
				return n, nil
			},
			PersistPath:   "leak.journal",
			FS:            fs,
			WatchInterval: 2 * time.Millisecond,
			CompactEvery:  3 * time.Millisecond,
			CompactKeep:   time.Hour,
			BackoffBase:   time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Start(); err != nil {
			t.Fatal(err)
		}
		mgr, err := node.NewManager(sup.Node())
		if err != nil {
			t.Fatal(err)
		}
		device := newTestDevice(t, sup.Gateway())
		mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
		if _, err := mgr.PublishAuthorization(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := device.PostReading(ctx, []byte(fmt.Sprintf("soak-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sup.Stop(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		run(round)
	}

	// Goroutines wind down asynchronously after Close returns; poll
	// briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 { // slack for runtime/test helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			stacks := string(buf[:n])
			// Trim to the interesting part for the failure message.
			if i := strings.Index(stacks, "\n\n"); i > 0 && len(stacks) > 4000 {
				stacks = stacks[:4000]
			}
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, now, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
