package attack

import (
	"context"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/identity"
)

func TestParasiteChainPunishedWithCreditParity(t *testing.T) {
	f := newFixture(t, 0)
	honest := f.authorize(t)
	atkKey := f.authorize(t)
	ctx := context.Background()

	hon, err := New(Config{Key: honest, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	// Honest background traffic so the parasite has a frontier to fork.
	for i := 0; i < 3; i++ {
		if _, err := hon.HonestSubmit(ctx, []byte("background")); err != nil {
			t.Fatal(err)
		}
		f.clk.Advance(time.Second)
	}

	atk, err := New(Config{Key: atkKey, Gateway: f.full, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := identity.Generate()
	v2, _ := identity.Generate()
	before := f.full.DifficultyFor(atk.Address())

	res, err := atk.ParasiteChain(ctx, v1.Address(), v2.Address(), 10, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted == 0 {
		t.Fatalf("parasite chain grew no links: %+v", res)
	}

	ledger := f.full.Engine().Ledger()
	events := ledger.Events(atk.Address())
	doubleSpends := 0
	for _, ev := range events {
		if ev.Behaviour == core.BehaviourDoubleSpend {
			doubleSpends++
		}
	}
	if doubleSpends == 0 {
		t.Error("parasite chain's conflicting spend left no double-spend event")
	}
	f.clk.Advance(time.Second)
	if after := f.full.DifficultyFor(atk.Address()); after <= before {
		t.Errorf("attacker difficulty %d → %d, want raised", before, after)
	}
	if hd := f.full.DifficultyFor(hon.Address()); f.full.DifficultyFor(atk.Address()) <= hd {
		t.Errorf("attacker difficulty %d not above honest %d",
			f.full.DifficultyFor(atk.Address()), hd)
	}
}

func TestCreditFarmRingDifficultyAndParity(t *testing.T) {
	f := newFixture(t, 0)
	ctx := context.Background()
	keys := make([]*identity.KeyPair, 3)
	for i := range keys {
		keys[i] = f.authorize(t)
	}

	res, err := CreditFarm(ctx, f.full, nil, f.clk, keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != res.Submitted || res.Rejected != 0 {
		t.Fatalf("authorized ring should farm unimpeded at admission: %+v", res)
	}
	if res.EndDifficulty > res.StartDifficulty {
		t.Errorf("farming raised difficulty %d → %d; want monotone non-increasing toward the clamp floor",
			res.StartDifficulty, res.EndDifficulty)
	}
	ledger := f.full.Engine().Ledger()
	if floor := ledger.Params().MinDifficulty; res.EndDifficulty < floor {
		t.Errorf("difficulty %d fell below the clamp floor %d", res.EndDifficulty, floor)
	}

	// The farmed CrP must expire with the window: once ΔT passes with
	// the ring silent, its difficulty advantage is gone.
	f.clk.Advance(4 * (ledger.Params().DeltaT / 3))
	post := f.full.Engine().CreditOf(keys[0].Address(), f.clk.Now())
	if post.CrP != 0 {
		t.Errorf("farmed CrP = %v after the window drained, want 0", post.CrP)
	}
}
