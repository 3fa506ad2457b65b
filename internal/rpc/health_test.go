package rpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
)

// supervisedFixture serves the RPC API for a supervised manager node,
// the deployment shape cmd/biot-node now runs: the server re-resolves
// the node through the supervisor and reports its health.
func supervisedFixture(t *testing.T) (*node.Supervisor, *Client, *node.Manager) {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bus := gossip.NewBus()
	t.Cleanup(func() { bus.Close() })
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
	sup, client, _ := supervisedFixture(t)

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "running" || !h.Ready || !h.Journal.OK || !h.Transport.OK {
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
	sup, client, mgr := supervisedFixture(t)
	_ = mgr

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
	if h.State != node.StateStopped.String() {
		t.Fatalf("drained node reports %+v, want stopped", h)
	}
	if client.Ready(ctx) {
		t.Fatal("drained node still ready")
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
