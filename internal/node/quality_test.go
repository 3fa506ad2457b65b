package node_test

import (
	"context"
	"testing"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/quality"
)

func newQualityDeployment(t *testing.T) (*node.Manager, *node.FullNode) {
	t.Helper()
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     testParams(),
		Quality:    quality.NewValidator(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, full
}

func TestQualityViolationPunishedThroughCredit(t *testing.T) {
	ctx := context.Background()
	mgr, full := newQualityDeployment(t)
	device := newTestDevice(t, full, nil)
	mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	// Clean reading: no violation, no punishment.
	if _, err := device.PostReading(ctx, []byte("sensor=temperature;seq=1;t=1;value=21.0")); err != nil {
		t.Fatal(err)
	}
	if got := full.CountersView().QualityViolations.Value(); got != 0 {
		t.Fatalf("violations after clean reading = %d", got)
	}
	before := full.DifficultyFor(device.Address())

	// Implausible reading: accepted (evidence stays on the ledger) but
	// punished.
	res, err := device.PostReading(ctx, []byte("sensor=temperature;seq=2;t=2;value=5000"))
	if err != nil {
		t.Fatalf("implausible reading rejected outright: %v", err)
	}
	if !full.Tangle().Contains(res.Info.ID) {
		t.Error("evidence not on ledger")
	}
	if got := full.CountersView().QualityViolations.Value(); got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
	after := full.DifficultyFor(device.Address())
	if after <= before {
		t.Errorf("difficulty %d → %d, want raised", before, after)
	}
	events := full.Engine().Ledger().Events(device.Address())
	found := false
	for _, ev := range events {
		if ev.Behaviour == core.BehaviourProtocol {
			found = true
		}
	}
	if !found {
		t.Error("no protocol event recorded")
	}
}

func TestQualitySkipsEncryptedReadings(t *testing.T) { inBubble(t, testQualitySkipsEncryptedReadings) }
func testQualitySkipsEncryptedReadings(t *testing.T) {
	ctx := context.Background()
	mgr, full := newQualityDeployment(t)
	device := newTestDevice(t, full, nil)
	mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.StartKeyDistribution(ctx, device.Address()); err != nil {
		t.Fatal(err)
	}
	// Complete key distribution quickly in-process.
	driveKeyDistribution(t, mgr, device)

	// An "implausible" value inside an encrypted envelope is opaque to
	// the gateway: no violation recorded.
	if _, err := device.PostReading(ctx, []byte("sensor=temperature;seq=99;t=1;value=5000")); err != nil {
		t.Fatal(err)
	}
	if got := full.CountersView().QualityViolations.Value(); got != 0 {
		t.Errorf("violations on encrypted payload = %d", got)
	}
}
