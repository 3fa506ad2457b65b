package experiments

import (
	"context"
	"fmt"
	"time"

	biot "github.com/b-iot/biot"
	"github.com/b-iot/biot/internal/attack"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
)

// SecurityConfig parameterizes the measured counterpart of the paper's
// §VI-C security analysis: each threat-model attack is actually launched
// against a live deployment and the defense's reaction is verified.
type SecurityConfig struct {
	// SybilIdentities is the number of fabricated identities.
	SybilIdentities int
	// FloodTxs and FloodRateLimit shape the DDoS scenario.
	FloodTxs       int
	FloodRateLimit int
	// Difficulty is the deployment's base PoW difficulty (kept low so
	// the scenarios run in milliseconds).
	Difficulty int
}

// DefaultSecurityConfig returns the standard scenario sizes.
func DefaultSecurityConfig() SecurityConfig {
	return SecurityConfig{
		SybilIdentities: 20,
		FloodTxs:        30,
		FloodRateLimit:  5,
		Difficulty:      4,
	}
}

// SecurityRow is one scenario's verdict.
type SecurityRow struct {
	Threat  string
	Defense string
	Pass    bool
	Detail  string
}

// SecurityResult is the measured security matrix.
type SecurityResult struct {
	Config SecurityConfig
	Rows   []SecurityRow
}

func securityParams(difficulty int) core.Params {
	p := core.DefaultParams()
	p.InitialDifficulty = difficulty
	p.MinDifficulty = 1
	p.MaxDifficulty = difficulty + 10
	return p
}

// RunSecurity executes the four §VI-C scenarios plus the
// single-point-of-failure drill.
func RunSecurity(ctx context.Context, cfg SecurityConfig) (*SecurityResult, error) {
	if cfg.SybilIdentities < 1 || cfg.FloodTxs < 1 || cfg.FloodRateLimit < 1 {
		return nil, fmt.Errorf("security scenario sizes must be positive")
	}
	res := &SecurityResult{Config: cfg}

	row, err := runSybilScenario(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("sybil scenario: %w", err)
	}
	res.Rows = append(res.Rows, row)

	row, err = runFloodScenario(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("flood scenario: %w", err)
	}
	res.Rows = append(res.Rows, row)

	row, err = runLazyScenario(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("lazy scenario: %w", err)
	}
	res.Rows = append(res.Rows, row)

	row, err = runDoubleSpendScenario(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("double-spend scenario: %w", err)
	}
	res.Rows = append(res.Rows, row)

	row, err = runFailoverScenario(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("failover scenario: %w", err)
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

// countEvents counts the malicious events of one behaviour recorded
// against addr.
func countEvents(sys *biot.System, addr identity.Address, b core.Behaviour) int {
	n := 0
	for _, ev := range sys.Events(addr) {
		if ev.Behaviour == b {
			n++
		}
	}
	return n
}

func runSybilScenario(ctx context.Context, cfg SecurityConfig) (SecurityRow, error) {
	sys, _, err := deploy(ctx, biot.SystemConfig{Credit: securityParams(cfg.Difficulty)}, 0)
	if err != nil {
		return SecurityRow{}, err
	}
	defer sys.Close()
	res, err := attack.SybilFlood(ctx, sys.ManagerGateway().Node(), nil, nil, cfg.SybilIdentities)
	if err != nil {
		return SecurityRow{}, err
	}
	return SecurityRow{
		Threat:  "Sybil attack",
		Defense: "manager authorization list on blockchain",
		Pass:    res.Accepted == 0 && res.Rejected == cfg.SybilIdentities,
		Detail: fmt.Sprintf("%d fabricated identities, %d rejected, %d accepted",
			res.Identities, res.Rejected, res.Accepted),
	}, nil
}

func runFloodScenario(ctx context.Context, cfg SecurityConfig) (SecurityRow, error) {
	sys, devices, err := deploy(ctx, biot.SystemConfig{
		Credit:    securityParams(cfg.Difficulty),
		RateLimit: cfg.FloodRateLimit,
	}, 1)
	if err != nil {
		return SecurityRow{}, err
	}
	defer sys.Close()
	atk, err := attack.New(attack.Config{Key: devices[0].Key(), Gateway: sys.ManagerGateway().Node()})
	if err != nil {
		return SecurityRow{}, err
	}
	res, err := atk.Flood(ctx, cfg.FloodTxs)
	if err != nil {
		return SecurityRow{}, err
	}
	return SecurityRow{
		Threat:  "DDoS submission flood",
		Defense: "per-device rate limiting behind authorization",
		Pass:    res.RateLimited > 0 && res.Accepted <= cfg.FloodTxs,
		Detail: fmt.Sprintf("%d sent, %d accepted, %d rate-limited",
			res.Sent, res.Accepted, res.RateLimited),
	}, nil
}

func runLazyScenario(ctx context.Context, cfg SecurityConfig) (SecurityRow, error) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0).UTC())
	sys, devices, err := deploy(ctx, biot.SystemConfig{Credit: securityParams(cfg.Difficulty), Clock: clk}, 2)
	if err != nil {
		return SecurityRow{}, err
	}
	defer sys.Close()
	full := sys.ManagerGateway().Node()
	honest := devices[0]
	// Seed early traffic, then pin its tips as the lazy pair.
	if _, err := honest.PostReading(ctx, []byte("early-1")); err != nil {
		return SecurityRow{}, err
	}
	trunk, branch, err := full.TipsForApproval()
	if err != nil {
		return SecurityRow{}, err
	}
	atk, err := attack.New(attack.Config{Key: devices[1].Key(), Gateway: full, Clock: clk})
	if err != nil {
		return SecurityRow{}, err
	}
	atk.PinLazyParents(trunk, branch)

	// Honest traffic moves the frontier while time passes beyond the
	// lazy threshold.
	for i := 0; i < 4; i++ {
		clk.Advance(20 * time.Second)
		if _, err := honest.PostReading(ctx, []byte(fmt.Sprintf("fresh-%d", i))); err != nil {
			return SecurityRow{}, err
		}
	}
	clk.Advance(20 * time.Second)

	before := sys.DifficultyFor(atk.Address())
	if _, err := atk.LazySubmit(ctx, []byte("lazy")); err != nil {
		return SecurityRow{}, err
	}
	clk.Advance(time.Second)
	after := sys.DifficultyFor(atk.Address())
	lazyDetected := countEvents(sys, atk.Address(), core.BehaviourLazyTips)
	return SecurityRow{
		Threat:  "lazy tips",
		Defense: "stale-parent detection + credit punishment",
		Pass:    lazyDetected > 0 && after > before,
		Detail: fmt.Sprintf("%d lazy event(s) recorded, difficulty %d → %d",
			lazyDetected, before, after),
	}, nil
}

func runDoubleSpendScenario(ctx context.Context, cfg SecurityConfig) (SecurityRow, error) {
	sys, devices, err := deploy(ctx, biot.SystemConfig{Credit: securityParams(cfg.Difficulty)}, 1)
	if err != nil {
		return SecurityRow{}, err
	}
	defer sys.Close()
	full := sys.ManagerGateway().Node()
	sys.Mint(devices[0].Address(), 100)

	victim1, err := identity.Generate()
	if err != nil {
		return SecurityRow{}, err
	}
	victim2, err := identity.Generate()
	if err != nil {
		return SecurityRow{}, err
	}
	atk, err := attack.New(attack.Config{Key: devices[0].Key(), Gateway: full})
	if err != nil {
		return SecurityRow{}, err
	}
	before := sys.DifficultyFor(atk.Address())
	first, second, err := atk.DoubleSpend(ctx, victim1.Address(), victim2.Address(), 40, 0)
	if err != nil {
		return SecurityRow{}, err
	}
	after := sys.DifficultyFor(atk.Address())

	doubleSpends := countEvents(sys, atk.Address(), core.BehaviourDoubleSpend)
	firstInfo, err := full.InfoOf(first.ID)
	if err != nil {
		return SecurityRow{}, err
	}
	secondInfo, err := full.InfoOf(second.ID)
	if err != nil {
		return SecurityRow{}, err
	}
	oneRejected := (firstInfo.Status == tangle.StatusRejected) !=
		(secondInfo.Status == tangle.StatusRejected)
	return SecurityRow{
		Threat:  "double-spending",
		Defense: "conflict resolution by cumulative weight + credit punishment",
		Pass:    doubleSpends > 0 && oneRejected && after > before,
		Detail: fmt.Sprintf("conflict events %d, statuses %v/%v, difficulty %d → %d",
			doubleSpends, firstInfo.Status, secondInfo.Status, before, after),
	}, nil
}

// runFailoverScenario builds its deployment by hand, not through deploy:
// it must Isolate and Restore one gateway on the gossip bus, which the
// facade does not expose.
func runFailoverScenario(ctx context.Context, cfg SecurityConfig) (SecurityRow, error) {
	bus := gossip.NewBus()
	defer func() { _ = bus.Close() }()

	managerKey, err := identity.Generate()
	if err != nil {
		return SecurityRow{}, err
	}
	mgrNet, err := bus.Join("manager")
	if err != nil {
		return SecurityRow{}, err
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     securityParams(cfg.Difficulty),
		Network:    mgrNet,
	})
	if err != nil {
		return SecurityRow{}, err
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		return SecurityRow{}, err
	}

	gateways := make([]*node.FullNode, 2)
	for i := range gateways {
		gwKey, err := identity.Generate()
		if err != nil {
			return SecurityRow{}, err
		}
		gwNet, err := bus.Join(fmt.Sprintf("gateway-%d", i))
		if err != nil {
			return SecurityRow{}, err
		}
		gateways[i], err = node.NewFull(node.FullConfig{
			Key:        gwKey,
			Role:       identity.RoleGateway,
			ManagerPub: managerKey.Public(),
			Credit:     securityParams(cfg.Difficulty),
			Network:    gwNet,
		})
		if err != nil {
			return SecurityRow{}, err
		}
	}

	deviceKey, err := identity.Generate()
	if err != nil {
		return SecurityRow{}, err
	}
	mgr.AuthorizeDevice(deviceKey.Public(), deviceKey.BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		return SecurityRow{}, err
	}
	// Authorization propagated via gossip; gateways now serve the
	// device.
	dev0, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: gateways[0]})
	if err != nil {
		return SecurityRow{}, err
	}
	if _, err := dev0.PostReading(ctx, []byte("before failure")); err != nil {
		return SecurityRow{}, fmt.Errorf("post via gateway-0: %w", err)
	}
	// Drain gateway-0's async fan-out before failing it, so the pre-
	// failure posting is replicated rather than lost with the node.
	if err := gateways[0].FlushBroadcast(ctx); err != nil {
		return SecurityRow{}, err
	}

	// Gateway 0 fails: isolate it from the network. The device
	// reconnects to gateway 1 ("find closest gateway enabled RPC
	// port") and service continues.
	bus.Isolate("gateway-0")
	dev1, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: gateways[1]})
	if err != nil {
		return SecurityRow{}, err
	}
	res, err := dev1.PostReading(ctx, []byte("after failure"))
	if err != nil {
		return SecurityRow{}, fmt.Errorf("post via gateway-1: %w", err)
	}
	if err := gateways[1].FlushBroadcast(ctx); err != nil {
		return SecurityRow{}, err
	}

	// The surviving replicas hold the data.
	_, errMgr := full.GetTransaction(res.Info.ID)
	_, errGw1 := gateways[1].GetTransaction(res.Info.ID)

	// Heal and resync the failed gateway.
	bus.Restore("gateway-0")
	gateways[0].SyncAll(ctx)
	_, errGw0 := gateways[0].GetTransaction(res.Info.ID)

	pass := errMgr == nil && errGw1 == nil && errGw0 == nil
	return SecurityRow{
		Threat:  "single point of failure",
		Defense: "replicated DAG ledger across full nodes",
		Pass:    pass,
		Detail: fmt.Sprintf("post-failure tx on manager=%v gw1=%v; resynced gw0=%v",
			errMgr == nil, errGw1 == nil, errGw0 == nil),
	}, nil
}

// Table builds the matrix.
func (r *SecurityResult) Table() *Table {
	t := &Table{
		Title:  "Security matrix — §VI-C threat scenarios, measured",
		Header: []string{"threat", "defense", "verdict", "detail"},
	}
	for _, row := range r.Rows {
		verdict := "DEFENDED"
		if !row.Pass {
			verdict = "FAILED"
		}
		t.add(row.Threat, row.Defense, verdict, row.Detail)
	}
	return t
}
