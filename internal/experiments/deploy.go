package experiments

import (
	"context"
	"sync"
	"time"

	biot "github.com/b-iot/biot"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/tangle"
)

// deploy boots a manager-only deployment through the public facade and
// publishes an authorization list holding n fresh devices, which submit
// through the manager's own gateway.
func deploy(ctx context.Context, cfg biot.SystemConfig, n int) (*biot.System, []*biot.Device, error) {
	sys, err := biot.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	devices := make([]*biot.Device, n)
	for i := range devices {
		if devices[i], err = sys.NewDevice(biot.DeviceConfig{}, nil); err != nil {
			sys.Close()
			return nil, nil, err
		}
		sys.AuthorizeDevice(devices[i].Key())
	}
	if err := sys.PublishAuthorization(ctx); err != nil {
		sys.Close()
		return nil, nil, err
	}
	return sys, devices, nil
}

// deviceRun is one measured burst of readings (runDevices).
type deviceRun struct {
	elapsed time.Duration
	accept  metrics.Summary
	stats   tangle.Stats
}

// runDevices deploys a manager at a static difficulty with n authorized
// devices on its own gateway, and has every device post txPerDevice
// readings of payloadBytes at once, timing each from submission to
// acceptance. The static policy isolates raw ledger throughput from the
// credit mechanism's honest-node speedup (measured separately in Fig 9).
func runDevices(ctx context.Context, difficulty, n, txPerDevice, payloadBytes int) (deviceRun, error) {
	params := core.DefaultParams()
	params.InitialDifficulty = difficulty
	params.MinDifficulty = 1
	params.MaxDifficulty = pow.MaxDifficulty
	sys, devices, err := deploy(ctx, biot.SystemConfig{
		Credit: params,
		Policy: core.StaticPolicy{Difficulty: difficulty},
	}, n)
	if err != nil {
		return deviceRun{}, err
	}
	defer sys.Close()

	payload := make([]byte, payloadBytes)
	var accept metrics.Histogram
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for _, dev := range devices {
		dev := dev
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txPerDevice; i++ {
				txStart := time.Now()
				if _, err := dev.PostReading(ctx, payload); err != nil {
					errCh <- err
					return
				}
				accept.Observe(time.Since(txStart))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return deviceRun{}, err
	default:
	}
	return deviceRun{elapsed: elapsed, accept: accept.Summarize(), stats: sys.Stats()}, nil
}
