package node_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// testParams returns credit params with a low initial difficulty so
// tests spend microseconds on PoW.
func testParams() core.Params {
	p := core.DefaultParams()
	p.InitialDifficulty = 4
	p.MinDifficulty = 1
	p.MaxDifficulty = 20
	return p
}

type deployment struct {
	managerKey *identity.KeyPair
	mgr        *node.Manager
	full       *node.FullNode
}

func newTestDeployment(t *testing.T) deployment {
	t.Helper()
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatalf("generate manager key: %v", err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     testParams(),
	})
	if err != nil {
		t.Fatalf("new full node: %v", err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatalf("new manager: %v", err)
	}
	return deployment{managerKey: managerKey, mgr: mgr, full: full}
}

// newTestDevice makes a device behind gw that signs on clk, which is the
// clock its deployment's nodes run on (nil: the real clock). A device on
// the real clock beside nodes on a virtual one would stamp its readings
// years away from the ledger's time, and a snapshot cuts by those stamps.
func newTestDevice(t *testing.T, gw node.Gateway, clk clock.Clock) *node.LightNode {
	t.Helper()
	deviceKey, err := identity.Generate()
	if err != nil {
		t.Fatalf("generate device key: %v", err)
	}
	device, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: gw, Clock: clk})
	if err != nil {
		t.Fatalf("new light node: %v", err)
	}
	return device
}

// driveKeyDistribution pumps both protocol sides until the device holds
// its data key, and returns how many sessions the manager's pumps
// completed. The manager must have already called StartKeyDistribution
// for the device.
func driveKeyDistribution(t *testing.T, mgr *node.Manager, device *node.LightNode) (completed int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	deviceDone := make(chan error, 1)
	go func() {
		deviceDone <- device.RunKeyDistribution(ctx, mgr.Node().Key().Public(), time.Millisecond)
	}()
	waitFor(t, "the device holds its data key", func() bool {
		select {
		case err := <-deviceDone:
			if err != nil {
				t.Fatalf("device key distribution: %v", err)
			}
			return true
		default:
		}
		n, err := mgr.PumpKeyDistribution(ctx)
		if err != nil {
			t.Fatalf("pump: %v", err)
		}
		completed += n
		return false
	})
	return completed
}

func TestEndToEndAuthorizeAndPostReading(t *testing.T) {
	dep := newTestDeployment(t)
	ctx := context.Background()
	device := newTestDevice(t, dep.full, nil)

	// Unauthorized device is rejected: the Sybil/DDoS gate.
	if _, err := device.PostReading(ctx, []byte("temp=21.5")); err == nil {
		t.Fatal("unauthorized device was accepted")
	}
	if got := dep.full.CountersView().Unauthorized.Value(); got == 0 {
		t.Error("unauthorized counter not incremented")
	}

	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatalf("publish authorization: %v", err)
	}

	res, err := device.PostReading(ctx, []byte("temp=21.5"))
	if err != nil {
		t.Fatalf("post reading: %v", err)
	}
	if res.Info.Status != tangle.StatusPending {
		t.Errorf("reading status = %v, want pending", res.Info.Status)
	}

	// The reading is retrievable and plaintext (no data key installed).
	stored, err := dep.full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatalf("get transaction: %v", err)
	}
	body, err := dataauth.Open(stored.Payload, nil)
	if err != nil {
		t.Fatalf("open payload: %v", err)
	}
	if string(body) != "temp=21.5" {
		t.Errorf("payload = %q, want %q", body, "temp=21.5")
	}
}

func TestEndToEndKeyDistributionAndEncryptedReading(t *testing.T) {
	inBubble(t, testEndToEndKeyDistributionAndEncryptedReading)
}
func testEndToEndKeyDistributionAndEncryptedReading(t *testing.T) {
	dep := newTestDeployment(t)
	ctx := context.Background()
	device := newTestDevice(t, dep.full, nil)

	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatalf("publish authorization: %v", err)
	}
	if _, err := dep.mgr.StartKeyDistribution(ctx, device.Address()); err != nil {
		t.Fatalf("start key distribution: %v", err)
	}

	if completed := driveKeyDistribution(t, dep.mgr, device); completed != 1 {
		t.Fatalf("manager completed %d sessions, want 1", completed)
	}
	if !device.HasDataKey() {
		t.Fatal("device has no data key after distribution")
	}

	// Sensitive reading round-trip: encrypted on ledger, decryptable
	// only with the issued key.
	secret := []byte("vibration=0.731;serial=XK-42")
	res, err := device.PostReading(ctx, secret)
	if err != nil {
		t.Fatalf("post encrypted reading: %v", err)
	}
	stored, err := dep.full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatalf("get transaction: %v", err)
	}
	env, err := dataauth.Parse(stored.Payload)
	if err != nil {
		t.Fatalf("parse envelope: %v", err)
	}
	if !env.Sensitive {
		t.Fatal("reading not marked sensitive")
	}
	if _, err := dataauth.Open(stored.Payload, nil); err == nil {
		t.Fatal("sensitive payload opened without key")
	}
	key, ok := dep.mgr.IssuedKey(device.Address())
	if !ok {
		t.Fatal("manager has no issued key")
	}
	body, err := dataauth.Open(stored.Payload, &key)
	if err != nil {
		t.Fatalf("open with issued key: %v", err)
	}
	if string(body) != string(secret) {
		t.Errorf("decrypted = %q, want %q", body, secret)
	}
}

func TestKeyRotation(t *testing.T) { inBubble(t, testKeyRotation) }
func testKeyRotation(t *testing.T) {
	dep := newTestDeployment(t)
	ctx := context.Background()
	device := newTestDevice(t, dep.full, nil)
	dep.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	// Rotation before any issuance is refused.
	if _, err := dep.mgr.RotateKey(ctx, device.Address()); !errors.Is(err, node.ErrNoSession) {
		t.Errorf("rotate without key: %v", err)
	}

	if _, err := dep.mgr.StartKeyDistribution(ctx, device.Address()); err != nil {
		t.Fatal(err)
	}
	driveKeyDistribution(t, dep.mgr, device)
	oldKey, ok := dep.mgr.IssuedKey(device.Address())
	if !ok {
		t.Fatal("no issued key")
	}

	// Rotate: the old key is revoked immediately, a new exchange runs.
	if _, err := dep.mgr.RotateKey(ctx, device.Address()); err != nil {
		t.Fatal(err)
	}
	if _, ok := dep.mgr.IssuedKey(device.Address()); ok {
		t.Error("old key still issued mid-rotation")
	}
	device2, err := node.NewLight(node.LightConfig{Key: device.Key(), Gateway: dep.full})
	if err != nil {
		t.Fatal(err)
	}
	driveKeyDistribution(t, dep.mgr, device2)
	newKey, ok := dep.mgr.IssuedKey(device.Address())
	if !ok {
		t.Fatal("no key after rotation")
	}
	if newKey == oldKey {
		t.Error("rotation produced the same key")
	}

	// Data encrypted under the new key is unreadable with the old one.
	res, err := device2.PostReading(ctx, []byte("post-rotation"))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := dep.full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataauth.Open(stored.Payload, &oldKey); err == nil {
		t.Error("old key decrypted post-rotation data")
	}
	if body, err := dataauth.Open(stored.Payload, &newKey); err != nil || string(body) != "post-rotation" {
		t.Errorf("new key failed: %q, %v", body, err)
	}
}

func TestShareKeyCrossDevice(t *testing.T) { inBubble(t, testShareKeyCrossDevice) }
func testShareKeyCrossDevice(t *testing.T) {
	dep := newTestDeployment(t)
	ctx := context.Background()
	owner := newTestDevice(t, dep.full, nil)
	reader := newTestDevice(t, dep.full, nil)
	dep.mgr.AuthorizeDevice(owner.Key().Public(), owner.Key().BoxPublic())
	dep.mgr.AuthorizeDevice(reader.Key().Public(), reader.Key().BoxPublic())
	if _, err := dep.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}

	// Sharing before issuance is refused.
	if _, err := dep.mgr.ShareKey(ctx, owner.Address(), reader.Address()); !errors.Is(err, node.ErrNoSession) {
		t.Errorf("share without key: %v", err)
	}

	if _, err := dep.mgr.StartKeyDistribution(ctx, owner.Address()); err != nil {
		t.Fatal(err)
	}
	driveKeyDistribution(t, dep.mgr, owner)

	// Owner posts encrypted data.
	res, err := owner.PostReading(ctx, []byte("shared config"))
	if err != nil {
		t.Fatal(err)
	}

	// The manager shares the group key with the reader via Fig 4.
	if _, err := dep.mgr.ShareKey(ctx, owner.Address(), reader.Address()); err != nil {
		t.Fatal(err)
	}
	driveKeyDistribution(t, dep.mgr, reader)
	if !reader.HasDataKey() {
		t.Fatal("reader has no key after sharing")
	}

	// The reader decrypts the owner's data with its received key — we
	// verify via the manager's issued copy, which must match.
	ownerKey, _ := dep.mgr.IssuedKey(owner.Address())
	stored, err := dep.full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, err := dataauth.Open(stored.Payload, &ownerKey)
	if err != nil || string(body) != "shared config" {
		t.Errorf("shared decrypt: %q, %v", body, err)
	}
}

// swappingGateway answers every GetTransaction with one fixed, validly
// signed transaction, whatever ID was asked for: a gateway lying about
// what a tip hash names.
type swappingGateway struct {
	node.Gateway
	decoy     *txn.Transaction
	submitted int
}

func (g *swappingGateway) GetTransaction(hashutil.Hash) (*txn.Transaction, error) {
	return g.decoy.Clone(), nil
}

func (g *swappingGateway) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	g.submitted++
	return g.Gateway.Submit(ctx, t)
}

// TestTipValidationBindsBodyToID: the device must validate the
// transaction its tip ID names, not whatever well-signed body the gateway
// hands back for it.
func TestTipValidationBindsBodyToID(t *testing.T) {
	dep := newTestDeployment(t)
	ctx := context.Background()
	honest := newTestDevice(t, dep.full, nil)
	dep.mgr.AuthorizeDevice(honest.Key().Public(), honest.Key().BoxPublic())
	authz, err := dep.mgr.PublishAuthorization(ctx)
	if err != nil {
		t.Fatalf("publish authorization: %v", err)
	}
	if _, err := honest.PostReading(ctx, []byte("a real tip")); err != nil {
		t.Fatalf("post reading: %v", err)
	}
	decoy, err := dep.full.GetTransaction(authz.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoy.VerifyBasic(); err != nil {
		t.Fatalf("the decoy must be validly signed for the test to mean anything: %v", err)
	}

	liar := &swappingGateway{Gateway: dep.full, decoy: decoy}
	victim, err := node.NewLight(node.LightConfig{Key: honest.Key(), Gateway: liar})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.PostReading(ctx, []byte("built on a lie")); !errors.Is(err, node.ErrTipInvalid) {
		t.Fatalf("PostReading over a body-swapping gateway: err = %v, want ErrTipInvalid", err)
	}
	if liar.submitted != 0 {
		t.Errorf("device submitted %d transactions on unvalidated tips", liar.submitted)
	}
}

// mutedGateway answers DifficultyFor with 0, as a gateway does when it
// cannot answer (a supervised node gone between the tips and the
// difficulty, an RPC failure).
type mutedGateway struct{ node.Gateway }

func (mutedGateway) DifficultyFor(identity.Address) int { return 0 }

// TestPostFailsWithNodeDownWithoutADifficulty: a device must not mine
// against a difficulty the gateway could not give; the post fails with
// ErrNodeDown, not with a proof-of-work range error.
func TestPostFailsWithNodeDownWithoutADifficulty(t *testing.T) {
	dep := newTestDeployment(t)
	device := newTestDevice(t, mutedGateway{dep.full}, nil)
	if _, err := device.PostReading(context.Background(), []byte("no target")); !errors.Is(err, node.ErrNodeDown) {
		t.Fatalf("PostReading without a difficulty: err = %v, want ErrNodeDown", err)
	}
}
