package attack

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
)

type fixture struct {
	mgr  *node.Manager
	full *node.FullNode
	clk  *clock.Virtual
}

func newFixture(t *testing.T, rateLimit int) *fixture {
	t.Helper()
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.InitialDifficulty = 4
	params.MinDifficulty = 1
	params.MaxDifficulty = 20
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     params,
		Clock:      clk,
		RateLimit:  rateLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mgr: mgr, full: full, clk: clk}
}

func (f *fixture) authorize(t *testing.T) *identity.KeyPair {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	f.mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
	if _, err := f.mgr.PublishAuthorization(context.Background()); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoAttackSurface) {
		t.Errorf("err = %v", err)
	}
}

func TestDoubleSpendPunished(t *testing.T) {
	f := newFixture(t, 0)
	key := f.authorize(t)
	atk, err := New(Config{Key: key, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := identity.Generate()
	v2, _ := identity.Generate()

	before := f.full.DifficultyFor(atk.Address())
	first, second, err := atk.DoubleSpend(context.Background(), v1.Address(), v2.Address(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)
	after := f.full.DifficultyFor(atk.Address())
	if after <= before {
		t.Errorf("difficulty %d → %d, want raised", before, after)
	}
	events := f.full.Engine().Ledger().Events(atk.Address())
	found := false
	for _, ev := range events {
		if ev.Behaviour == core.BehaviourDoubleSpend {
			found = true
		}
	}
	if !found {
		t.Error("no double-spend event recorded")
	}
	fi, err := f.full.InfoOf(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	si, err := f.full.InfoOf(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	if fi.Status == tangle.StatusRejected {
		rejected++
	}
	if si.Status == tangle.StatusRejected {
		rejected++
	}
	if rejected != 1 {
		t.Errorf("rejected = %d conflicting spends, want exactly 1", rejected)
	}
}

func TestLazyAttackerDetected(t *testing.T) {
	f := newFixture(t, 0)
	honest := f.authorize(t)
	lazyKey := f.authorize(t)

	honestDev, err := node.NewLight(node.LightConfig{Key: honest, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := honestDev.PostReading(context.Background(), []byte("seed")); err != nil {
		t.Fatal(err)
	}
	trunk, branch, err := f.full.TipsForApproval()
	if err != nil {
		t.Fatal(err)
	}
	atk, err := New(Config{Key: lazyKey, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	atk.PinLazyParents(trunk, branch)

	// Frontier moves; time passes beyond the 30 s lazy threshold.
	for i := 0; i < 3; i++ {
		f.clk.Advance(20 * time.Second)
		if _, err := honestDev.PostReading(context.Background(), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := atk.LazySubmit(context.Background(), []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	events := f.full.Engine().Ledger().Events(atk.Address())
	lazy := 0
	for _, ev := range events {
		if ev.Behaviour == core.BehaviourLazyTips {
			lazy++
		}
	}
	if lazy != 1 {
		t.Errorf("lazy events = %d, want 1", lazy)
	}
}

func TestLazySubmitRequiresPinnedParents(t *testing.T) {
	f := newFixture(t, 0)
	key := f.authorize(t)
	atk, err := New(Config{Key: key, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atk.LazySubmit(context.Background(), []byte("x")); !errors.Is(err, ErrNoLazyParents) {
		t.Errorf("err = %v", err)
	}
}

func TestSybilFloodAllRejected(t *testing.T) {
	f := newFixture(t, 0)
	res, err := SybilFlood(context.Background(), f.full, nil, f.clk, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Rejected != 15 {
		t.Errorf("sybil result = %+v", res)
	}
	// The ledger carries no trace beyond genesis: the gate held before
	// any tangle work.
	if size := f.full.Tangle().Size(); size != 2 {
		t.Errorf("tangle size = %d after sybil flood", size)
	}
}

func TestFloodHitsRateLimit(t *testing.T) {
	f := newFixture(t, 5)
	key := f.authorize(t)
	atk, err := New(Config{Key: key, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	res, err := atk.Flood(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	// Virtual clock is frozen, so all 20 land in one window: 5 pass.
	if res.Accepted > 6 {
		t.Errorf("accepted = %d with limit 5", res.Accepted)
	}
	if res.RateLimited < 14 {
		t.Errorf("rate limited = %d", res.RateLimited)
	}
}

func TestHonestSubmitBuildsCredit(t *testing.T) {
	f := newFixture(t, 0)
	key := f.authorize(t)
	atk, err := New(Config{Key: key, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := atk.HonestSubmit(context.Background(), []byte("good")); err != nil {
			t.Fatal(err)
		}
	}
	c := f.full.Engine().CreditOf(atk.Address(), f.clk.Now())
	if c.CrP <= 0 || c.CrN != 0 {
		t.Errorf("credit after honest behaviour = %+v", c)
	}
}
