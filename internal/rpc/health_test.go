package rpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
)

// supervisedFixture serves the RPC API for a supervised manager node on
// bus, the deployment shape cmd/biot-node runs: the server re-resolves
// the node through the supervisor and reports its health.
func supervisedFixture(t *testing.T, bus *gossip.Bus) (*node.Supervisor, *Client, *node.Manager) {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := node.NewSupervisor(node.SupervisorConfig{
		Build: func() (*node.FullNode, error) {
			net, err := bus.Join("rpc-node")
			if err != nil {
				return nil, err
			}
			n, err := node.NewFull(node.FullConfig{
				Key:        key,
				Role:       identity.RoleManager,
				ManagerPub: key.Public(),
				Network:    net,
			})
			if err != nil {
				net.Close()
				return nil, err
			}
			return n, nil
		},
		PersistPath: "rpc.journal",
		FS:          chaos.NewMemFS(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Stop(context.Background()) })
	mgr, err := node.NewManager(sup.Node())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(nil,
		WithNodeSource(sup.Node),
		WithHealth(sup),
	).Handler())
	t.Cleanup(srv.Close)
	return sup, NewClient(srv.URL), mgr
}

func TestHealthEndpointsTrackSupervisor(t *testing.T) {
	ctx := context.Background()
	sup, client, _ := supervisedFixture(t, newBus(t))

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "running" || !h.Ready || !h.Journal.OK {
		t.Fatalf("running health = %+v", h)
	}
	if !client.Ready(ctx) {
		t.Fatal("readyz not ok while running")
	}
	if _, err := client.Info(ctx); err != nil {
		t.Fatalf("info through node source: %v", err)
	}

	// Stop drains: readiness flips off, data endpoints 503, healthz
	// still answers (the process is alive, just not serving).
	if err := sup.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if client.Ready(ctx) {
		t.Fatal("readyz still ok after drain")
	}
	if _, err := client.Info(ctx); err == nil {
		t.Fatal("info served with node down")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("info while down err = %v, want 503", err)
		}
	}
	h, err = client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Ready || h.State != "stopped" {
		t.Fatalf("stopped health = %+v", h)
	}

	// Restart: the server resolves the NEW node instance and recovers.
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if !client.Ready(ctx) {
		t.Fatal("readyz not ok after restart")
	}
	if _, err := client.Info(ctx); err != nil {
		t.Fatalf("info after restart: %v", err)
	}
}

func TestReadyzFlipsDuringGracefulDrain(t *testing.T) {
	ctx := context.Background()
	sup, client, _ := supervisedFixture(t, newBus(t))

	// Readiness and liveness must disagree during a drain: healthz keeps
	// reporting a live, stopped process while readyz says "route traffic
	// elsewhere".
	if err := sup.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "stopped" {
		t.Fatalf("drained node reports %+v, want stopped", h)
	}
	if client.Ready(ctx) {
		t.Fatal("drained node still ready")
	}
}

// newBus is an in-memory gossip bus closed when the test ends.
func newBus(t *testing.T) *gossip.Bus {
	bus := gossip.NewBus()
	t.Cleanup(func() { bus.Close() })
	return bus
}

// TestProbesAnswerDuringAStalledDrain: a graceful Stop flushes the
// broadcast pipeline before it closes the node, and a peer that never
// acknowledges holds that flush for as long as the drain's context allows.
// Readiness must drop at once and liveness must keep answering meanwhile.
func TestProbesAnswerDuringAStalledDrain(t *testing.T) {
	ctx := context.Background()
	bus := newBus(t)
	sup, client, mgr := supervisedFixture(t, bus)
	stall, err := bus.Join("stalled-peer")
	if err != nil {
		t.Fatal(err)
	}
	var stalling sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	stall.SetHandler(gossip.HandlerFunc(func(string, gossip.Message) (*gossip.Message, error) {
		stalling.Do(func() { close(held) })
		<-release
		return &gossip.Message{}, nil
	}))
	// The publish waits for its own fan-out, which the peer holds.
	published := make(chan struct{})
	go func() {
		mgr.PublishAuthorization(ctx)
		close(published)
	}()
	<-held

	stopped := make(chan struct{})
	go func() {
		sup.Stop(ctx)
		close(stopped)
	}()
	defer func() {
		close(release)
		<-stopped
		<-published
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sup.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("Stop never began the drain")
		}
		time.Sleep(time.Millisecond)
	}

	probe := func(f func()) bool {
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
			return true
		case <-time.After(500 * time.Millisecond):
			return false
		}
	}
	var h node.Health
	if !probe(func() { h = sup.Health() }) {
		t.Fatal("Health blocked behind the drain")
	}
	if h.Ready {
		t.Fatalf("health mid-drain = %+v; want not ready", h)
	}
	var readyErr error
	if !probe(func() { readyErr = client.get(ctx, "/readyz", "", nil) }) {
		t.Fatal("/readyz blocked behind the drain")
	}
	var apiErr *APIError
	if !errors.As(readyErr, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz mid-drain err = %v; want 503", readyErr)
	}
}

func TestSubmitNeverRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	f := newFixture(t) // only to mine a valid transaction
	dev := f.authorizedDevice(t)
	res, err := dev.PostReading(context.Background(), []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := f.full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}

	c := NewClient(srv.URL)
	if _, err := c.Submit(context.Background(), tx); err == nil {
		t.Fatal("submit against 503 succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d submits, want exactly 1 (no auto-retry)", got)
	}
}

func TestCallContextDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hang until the test finishes
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Info(ctx)
	if err == nil {
		t.Fatal("deadline ignored")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}
