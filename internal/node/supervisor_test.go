package node_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/txn"
)

// supervisedGatewayConfig builds a Supervisor for one gateway that
// re-joins bus under name on every (re)start, runs on clk (nil: the real
// clock) and journals to fs.
func supervisedGatewayConfig(t *testing.T, bus *gossip.Bus, name string, mgrPub identity.PublicKey, fs chaos.FS, clk clock.Clock) node.SupervisorConfig {
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
				Clock:      clk,
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

func TestSupervisorLifecycleAndDrain(t *testing.T) { inBubble(t, testSupervisorLifecycleAndDrain) }
func testSupervisorLifecycleAndDrain(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(1)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-sup", dep.mgrKey.Public(), fs, nil)
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Ready() || sup.Health().State != "stopped" {
		t.Fatal("idle supervisor claims readiness")
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); !errors.Is(err, node.ErrSupervisorRunning) {
		t.Fatalf("double start err = %v", err)
	}
	h := sup.Health()
	if !sup.Ready() || h.State != "running" || !h.Journal.OK || !h.Ready {
		t.Fatalf("health after start: %+v", h)
	}

	// Submissions through the supervisor's gateway delegate land and
	// are journaled.
	device := newTestDevice(t, sup.Gateway(), nil)
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
	if sup.Ready() || sup.Health().State != "stopped" || sup.Node() != nil {
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
	inBubble(t, testSupervisorWatchdogRestartsPoisonedJournal)
}
func testSupervisorWatchdogRestartsPoisonedJournal(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(2)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-dog", dep.mgrKey.Public(), fs, nil)
	cfg.WatchInterval = 5 * time.Millisecond
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(ctx)

	device := newTestDevice(t, sup.Gateway(), nil)
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

	waitRestarted(t, sup)

	// The restarted node replays the durable prefix and serves traffic.
	if _, err := device.PostReading(ctx, []byte("post-restart")); err != nil {
		t.Fatalf("reading after watchdog restart: %v", err)
	}
}

// TestSupervisorHealthCarriesTheStartError: the watchdog retries a failed
// restart and returns its error to nobody, so "never became ready" used to
// be all an operator saw. Here the journal poisons, and the journal every
// restart finds holds a record ahead of its parent; every restart is a
// replay refusal, the watchdog keeps retrying, and /healthz says why,
// naming the record — until a start succeeds.
func TestSupervisorHealthCarriesTheStartError(t *testing.T) {
	inBubble(t, testSupervisorHealthCarriesTheStartError)
}
func testSupervisorHealthCarriesTheStartError(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(5)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-refused", dep.mgrKey.Public(), fs, nil)
	cfg.WatchInterval = 5 * time.Millisecond
	// A record whose parent no journal, genesis or cold index holds,
	// appended to the journal by the first restart's build (the sick node's
	// journal is closed by then).
	var unknown hashutil.Hash
	unknown[0] = 0xEE
	orphan := craftTx(dep.mgrKey, txn.KindData, []byte("orphan"), unknown, unknown, time.Now(), testParams().MinDifficulty)
	var plant atomic.Bool
	build := cfg.Build
	cfg.Build = func() (*node.FullNode, error) {
		if plant.CompareAndSwap(true, false) {
			log, err := store.OpenFS(fs, cfg.PersistPath, nil)
			if err != nil {
				return nil, err
			}
			if err := log.AppendBatch([][]byte{orphan.Encode()}); err != nil {
				return nil, err
			}
			if err := log.Close(); err != nil {
				return nil, err
			}
		}
		return build()
	}
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

	plant.Store(true)
	poisonJournal(t, dep, fs)
	waitFor(t, "the health of a supervisor whose restarts are all replay refusals names the refused record", func() bool {
		return strings.Contains(sup.Health().StartError, "journal record "+orphan.ID().Short())
	})
	if err := sup.Stop(ctx); err != nil {
		t.Fatal(err)
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

// poisonJournal makes the supervised gateway's next journal write fail,
// then has the manager publish an authorization list, which the gateway
// attaches and journals.
func poisonJournal(t *testing.T, dep *multiNodeDeployment, fs *chaos.MemFS) {
	t.Helper()
	fs.InjectWriteError(nil)
	if _, err := dep.mgr.PublishAuthorization(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitRestarted waits until the watchdog has restarted sup's node onto a
// healthy journal.
func waitRestarted(t *testing.T, sup *node.Supervisor) {
	t.Helper()
	waitFor(t, "the watchdog restarts the node onto a healthy journal", func() bool {
		n := sup.Node()
		return sup.Restarts() > 0 && sup.Ready() && n != nil && n.JournalHealthy()
	})
}

// returnsWithin reports whether f returns inside d.
func returnsWithin(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestSupervisorHealthAnswersDuringARestart: the watchdog's restart holds
// the lifecycle lock across the rebuild and the journal replay, which can
// take long on a big ledger. A liveness probe must not wait for it.
func TestSupervisorHealthAnswersDuringARestart(t *testing.T) {
	inBubble(t, testSupervisorHealthAnswersDuringARestart)
}
func testSupervisorHealthAnswersDuringARestart(t *testing.T) {
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(11)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-held", dep.mgrKey.Public(), fs, nil)
	cfg.WatchInterval = 5 * time.Millisecond
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	build := cfg.Build
	cfg.Build = func() (*node.FullNode, error) {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return build()
	}
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(context.Background())
	defer close(release) // before the Stop, which waits for the restart

	hold.Store(true)
	poisonJournal(t, dep, fs)
	awaitReturn(t, "the watchdog's rebuild of the poisoned node", entered)
	var h node.Health
	if !returnsWithin(500*time.Millisecond, func() { h = sup.Health() }) {
		t.Fatal("Health blocked behind a restart's build")
	}
	if h.Ready || h.State != "stopped" || h.Restarts == 0 {
		t.Fatalf("health mid-restart = %+v; want not ready, stopped, one restart counted", h)
	}
}

// TestSupervisorGatewayWaitsOutARestart: probes answer at once during a
// restart, but a device posting through the supervisor's Gateway waits for
// the fresh node and lands on it instead of failing with ErrNodeDown.
// It stays on real time: the device waits on the supervisor's lifecycle
// mutex, which a synctest bubble does not count as durably blocked, so
// inside one neither synctest.Wait nor a timer would return while it waits.
func TestSupervisorGatewayWaitsOutARestart(t *testing.T) {
	ctx := context.Background()
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(12)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-wait", dep.mgrKey.Public(), fs, nil)
	cfg.WatchInterval = 5 * time.Millisecond
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	build := cfg.Build
	cfg.Build = func() (*node.FullNode, error) {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return build()
	}
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(ctx)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // before the Stop, which waits for the restart

	device := newTestDevice(t, sup.Gateway(), nil)
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

	hold.Store(true)
	fs.InjectSyncError(nil)
	if _, err := device.PostReading(ctx, []byte("poisoning")); err != nil {
		t.Fatal(err)
	}
	awaitReturn(t, "the watchdog's rebuild of the poisoned node", entered)
	done := make(chan error, 1)
	go func() {
		_, err := device.PostReading(ctx, []byte("mid-restart"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("post returned %v while the restart's build was held; want it to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	free()
	if err := awaitReturn(t, "the post, the restart finished", done); err != nil {
		t.Fatalf("post during a restart: %v", err)
	}
	if sup.Restarts() == 0 || !sup.Ready() {
		t.Fatalf("health after the restart = %+v", sup.Health())
	}
}

// TestSupervisorStartRefusedBetweenFailedRestarts: while the watchdog backs
// off between failed restarts no node is up, but the supervisor is running.
// A Start then must not start a second watchdog that no Stop would end.
func TestSupervisorStartRefusedBetweenFailedRestarts(t *testing.T) {
	inBubble(t, testSupervisorStartRefusedBetweenFailedRestarts)
}
func testSupervisorStartRefusedBetweenFailedRestarts(t *testing.T) {
	dep := newMultiNode(t, 1, nil)
	fs := chaos.NewMemFS(13)
	cfg := supervisedGatewayConfig(t, dep.bus, "gw-retry", dep.mgrKey.Public(), fs, nil)
	cfg.WatchInterval = 5 * time.Millisecond
	var failing atomic.Bool
	build := cfg.Build
	cfg.Build = func() (*node.FullNode, error) {
		if failing.Load() {
			return nil, errors.New("build refused")
		}
		return build()
	}
	sup, err := node.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}

	failing.Store(true)
	poisonJournal(t, dep, fs)
	waitFor(t, "the watchdog fails a restart", func() bool {
		return sup.Restarts() >= 2 && strings.Contains(sup.Health().StartError, "build refused")
	})
	failing.Store(false)
	if err := sup.Start(); !errors.Is(err, node.ErrSupervisorRunning) {
		t.Errorf("Start between failed restarts: err = %v, want ErrSupervisorRunning", err)
	}
	if !returnsWithin(5*time.Second, func() { sup.Stop(context.Background()) }) {
		t.Fatal("Stop hung: a watchdog outlived it")
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
	// A 6 ms credit window and keep put the compaction loop on a 3 ms
	// step, so compactions run beside the soak and the stop.
	params := testParams()
	params.DeltaT = 6 * time.Millisecond
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
					Credit:     params,
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
			CompactKeep:   6 * time.Millisecond,
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
		device := newTestDevice(t, sup.Gateway(), nil)
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

	// Goroutines wind down asynchronously after Close returns.
	waitFor(t, "the goroutine count is back at its baseline (+2 for runtime and test helpers)", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}
