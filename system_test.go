package biot_test

import (
	"context"
	"testing"
	"time"

	biot "github.com/b-iot/biot"
)

// fastParams keeps PoW trivial in tests.
func fastParams() biot.CreditParams {
	p := biot.DefaultCreditParams()
	p.InitialDifficulty = 4
	p.MinDifficulty = 1
	p.MaxDifficulty = 20
	return p
}

func TestSystemQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	sys, err := biot.NewSystem(biot.SystemConfig{Credit: fastParams()})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	dev, err := sys.NewDevice(biot.DeviceConfig{}, nil)
	if err != nil {
		t.Fatalf("new device: %v", err)
	}
	sys.AuthorizeDevice(dev.Key())
	if err := sys.PublishAuthorization(ctx); err != nil {
		t.Fatalf("publish authorization: %v", err)
	}

	info, err := dev.PostReading(ctx, []byte("temp=20.1"))
	if err != nil {
		t.Fatalf("post reading: %v", err)
	}
	body, err := dev.FetchReading(info.ID, nil)
	if err != nil {
		t.Fatalf("fetch reading: %v", err)
	}
	if string(body) != "temp=20.1" {
		t.Errorf("reading = %q, want %q", body, "temp=20.1")
	}
}

func TestSystemEncryptedFlowAndGatewayRPC(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sys, err := biot.NewSystem(biot.SystemConfig{Credit: fastParams()})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	defer sys.Close()

	gw, err := sys.AddGateway(ctx)
	if err != nil {
		t.Fatalf("add gateway: %v", err)
	}
	addr, err := gw.ServeRPC("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve rpc: %v", err)
	}

	// The device connects over HTTP, exactly as a separate process
	// would.
	key, err := biot.NewKeyPair()
	if err != nil {
		t.Fatalf("device key: %v", err)
	}
	dev, err := biot.ConnectDevice(biot.DeviceConfig{Key: key}, "http://"+addr)
	if err != nil {
		t.Fatalf("connect device: %v", err)
	}
	sys.AuthorizeDevice(key)
	if err := sys.PublishAuthorization(ctx); err != nil {
		t.Fatalf("publish authorization: %v", err)
	}

	// In-process twin of the same account completes key distribution
	// (distribution needs the device account, not the transport).
	devLocal, err := sys.NewDevice(biot.DeviceConfig{Key: key}, nil)
	if err != nil {
		t.Fatalf("local device: %v", err)
	}
	if err := sys.DistributeKey(ctx, devLocal); err != nil {
		t.Fatalf("distribute key: %v", err)
	}
	if !devLocal.HasDataKey() {
		t.Fatal("device missing data key")
	}

	// Encrypted posting via the local twin; retrieval over RPC.
	info, err := devLocal.PostReading(ctx, []byte("secret=42"))
	if err != nil {
		t.Fatalf("post encrypted: %v", err)
	}
	// The reading entered at the manager; gateway-0 holds it once the
	// manager's fan-out has been delivered.
	if err := sys.Manager().Node().FlushBroadcast(ctx); err != nil {
		t.Fatalf("flush manager broadcast: %v", err)
	}
	if _, err := dev.FetchReading(info.ID, nil); err == nil {
		t.Fatal("sensitive reading opened without key over rpc")
	}
	issued, ok := sys.IssuedKey(devLocal)
	if !ok {
		t.Fatal("no issued key")
	}
	body, err := dev.FetchReading(info.ID, &issued)
	if err != nil {
		t.Fatalf("fetch encrypted over rpc: %v", err)
	}
	if string(body) != "secret=42" {
		t.Errorf("reading = %q, want %q", body, "secret=42")
	}
}
