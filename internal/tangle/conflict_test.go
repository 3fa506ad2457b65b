package tangle

import (
	"fmt"
	"testing"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// transferTx is buildTx's transfer: a signed spend stamped at tg's now.
func transferTx(t testing.TB, tg *Tangle, key *identity.KeyPair, trunk, branch hashutil.Hash, to identity.Address, amount, seq uint64) *txn.Transaction {
	t.Helper()
	tx := &txn.Transaction{
		Trunk:     trunk,
		Branch:    branch,
		Timestamp: tg.clk.Now(),
		Kind:      txn.KindTransfer,
		Payload:   txn.EncodeTransfer(txn.Transfer{To: to, Amount: amount, Seq: seq}),
	}
	tx.Sign(key)
	return tx
}

func victim(t testing.TB) identity.Address {
	t.Helper()
	return mustKey(t).Address()
}

func TestDoubleSpendDetectedAndResolved(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	var events []Event
	tg.Observe(ObserverFunc(func(ev Event) { events = append(events, ev) }))

	g := tg.Genesis()
	first := transferTx(t, tg, spender, g[0], g[1], victim(t), 10, 0)
	firstInfo, err := tg.Attach(first)
	if err != nil {
		t.Fatal(err)
	}
	// A tx approving the first spend gives it extra cumulative weight.
	support := buildTx(t, tg, key, firstInfo.ID, firstInfo.ID, "support")
	if _, err := tg.Attach(support); err != nil {
		t.Fatal(err)
	}

	// Conflicting spend of the same (account, seq).
	second := transferTx(t, tg, spender, g[0], g[1], victim(t), 10, 0)
	secondInfo, err := tg.Attach(second)
	if err != nil {
		t.Fatal(err)
	}

	if got := countEvents(events, EventDoubleSpend); got != 1 {
		t.Errorf("double-spend events = %d, want 1", got)
	}
	for _, ev := range events {
		if ev.Kind == EventDoubleSpend && ev.Node != spender.Address() {
			t.Error("double spend attributed to wrong node")
		}
	}

	// The lighter, later spend loses.
	fi, err := tg.InfoOf(firstInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	si, err := tg.InfoOf(secondInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Status == StatusRejected {
		t.Error("heavier first spend was rejected")
	}
	if si.Status != StatusRejected {
		t.Errorf("second spend status = %v, want rejected", si.Status)
	}
}

func TestConflictsOf(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	g := tg.Genesis()
	a, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := tg.ConflictsOf(a.ID); got != nil {
		t.Errorf("fresh transfer has conflicts: %v", got)
	}
	b, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	ca := tg.ConflictsOf(a.ID)
	cb := tg.ConflictsOf(b.ID)
	if len(ca) != 1 || ca[0] != b.ID {
		t.Errorf("ConflictsOf(a) = %v", ca)
	}
	if len(cb) != 1 || cb[0] != a.ID {
		t.Errorf("ConflictsOf(b) = %v", cb)
	}
}

func TestDifferentSeqsDoNotConflict(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	var events []Event
	tg.Observe(ObserverFunc(func(ev Event) { events = append(events, ev) }))
	g := tg.Genesis()
	if _, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 1, 0)); err != nil {
		t.Fatal(err)
	}
	trunk, branch, err := tg.SelectTips(StrategyUniform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Attach(transferTx(t, tg, spender, trunk, branch, victim(t), 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(events, EventDoubleSpend); got != 0 {
		t.Errorf("double-spend events = %d for distinct seqs", got)
	}
}

func TestDifferentAccountsSameSeqDoNotConflict(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	s1, s2 := mustKey(t), mustKey(t)
	var events []Event
	tg.Observe(ObserverFunc(func(ev Event) { events = append(events, ev) }))
	g := tg.Genesis()
	if _, err := tg.Attach(transferTx(t, tg, s1, g[0], g[1], victim(t), 1, 0)); err != nil {
		t.Fatal(err)
	}
	trunk, branch, err := tg.SelectTips(StrategyUniform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Attach(transferTx(t, tg, s2, trunk, branch, victim(t), 1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(events, EventDoubleSpend); got != 0 {
		t.Errorf("double-spend events = %d across accounts", got)
	}
}

func TestTripleSpendKeepsSingleWinner(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	g := tg.Genesis()
	var ids []hashutil.Hash
	for i := 0; i < 3; i++ {
		info, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), uint64(i+1), 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	notRejected := 0
	for _, id := range ids {
		info, err := tg.InfoOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusRejected {
			notRejected++
		}
	}
	if notRejected != 1 {
		t.Errorf("%d spends survive, want exactly 1", notRejected)
	}
}

func TestRejectedTipRestoresParents(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	g := tg.Genesis()

	first, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Conflicting spend approving the first: it becomes the only tip,
	// then loses resolution. The tip pool must not go empty.
	second := transferTx(t, tg, spender, first.ID, first.ID, victim(t), 2, 0)
	if _, err := tg.Attach(second); err != nil {
		t.Fatal(err)
	}
	if tg.TipCount() == 0 {
		t.Fatal("tip pool is empty after conflict resolution")
	}
	// And honest traffic can continue.
	attachOne(t, tg, key, "after-conflict")
}

// TestRejectedTxNeverSelectedAsTip attaches the two equal-weight halves
// of one double spend in both orders. Which half loses depends on the
// IDs, not on the order, so the loser is found by its status; the same
// half must lose either way, and it must never come back as a tip.
func TestRejectedTxNeverSelectedAsTip(t *testing.T) {
	manager, spender := mustKey(t), mustKey(t)
	var tangles [2]*Tangle
	for k := range tangles {
		tg, err := New(DefaultConfig(), manager.Public(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tangles[k] = tg
	}
	g := tangles[0].Genesis()
	var halves [2]*txn.Transaction
	for i := range halves {
		halves[i] = transferTx(t, tangles[0], spender, g[0], g[1], victim(t), uint64(i+1), 0)
	}
	var losers []hashutil.Hash
	for k, order := range [][2]int{{0, 1}, {1, 0}} {
		tg := tangles[k]
		for _, i := range order {
			if _, err := tg.Attach(halves[i]); err != nil {
				t.Fatal(err)
			}
		}
		var loser hashutil.Hash
		for _, h := range halves {
			info, err := tg.InfoOf(h.ID())
			if err != nil {
				t.Fatal(err)
			}
			if info.Status == StatusRejected {
				loser = h.ID()
			}
		}
		if loser.IsZero() {
			t.Fatalf("order %v: neither half was rejected", order)
		}
		losers = append(losers, loser)
		for i := 0; i < 50; i++ {
			trunk, branch, err := tg.SelectTips(StrategyUniform)
			if err != nil {
				t.Fatal(err)
			}
			if trunk == loser || branch == loser {
				t.Fatalf("order %v: rejected transaction selected as tip", order)
			}
		}
	}
	if losers[0] != losers[1] {
		t.Error("the arrival order picked the loser")
	}
}

func TestConflictLoserSettlementSkipped(t *testing.T) {
	// The rejected branch must not be exported as a tip nor counted in
	// stats as pending forever; Stats reflects the conflict.
	tg, _ := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	g := tg.Genesis()
	if _, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 2, 0)); err != nil {
		t.Fatal(err)
	}
	s := tg.StatsNow()
	if s.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Rejected)
	}
	if s.Conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", s.Conflicts)
	}
}

func TestManyIndependentSpendersNoCrossConflicts(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	var events []Event
	tg.Observe(ObserverFunc(func(ev Event) { events = append(events, ev) }))
	for i := 0; i < 8; i++ {
		spender := mustKey(t)
		for seq := uint64(0); seq < 3; seq++ {
			trunk, branch, err := tg.SelectTips(StrategyUniform)
			if err != nil {
				t.Fatal(err)
			}
			tx := transferTx(t, tg, spender, trunk, branch, victim(t), 1, seq)
			if _, err := tg.Attach(tx); err != nil {
				t.Fatalf("spender %d seq %d: %v", i, seq, err)
			}
		}
	}
	if got := countEvents(events, EventDoubleSpend); got != 0 {
		t.Errorf("spurious double-spend events: %d", got)
	}
	if s := tg.StatsNow(); s.Rejected != 0 {
		t.Errorf("rejected = %d, want 0", s.Rejected)
	}
}

func TestConflictEventCarriesEvidence(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	g := tg.Genesis()
	a, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var dsEvents []Event
	tg.Observe(ObserverFunc(func(ev Event) {
		if ev.Kind == EventDoubleSpend {
			dsEvents = append(dsEvents, ev)
		}
	}))
	b, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(dsEvents) != 1 {
		t.Fatalf("events = %d", len(dsEvents))
	}
	ev := dsEvents[0]
	if ev.Tx != b.ID {
		t.Error("event tx is not the conflicting submission")
	}
	if len(ev.Related) != 1 || ev.Related[0] != a.ID {
		t.Errorf("event related = %v, want [%v]", ev.Related, a.ID)
	}
}

func TestHeavierLaterSpendWins(t *testing.T) {
	// Weight decides before the ID tie-break, and a group is resolved
	// again only when a new spend joins it: support the later spend,
	// then let a third conflicting spend trigger re-resolution.
	tg, key := newTangle(t, DefaultConfig(), nil)
	spender := mustKey(t)
	g := tg.Genesis()
	a, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	// a and b tie on weight, so the lower ID won. Support b's branch
	// heavily — weight accrues on a rejected spend too, and the next
	// conflicting attachment re-runs resolution.
	last := b.ID
	for i := 0; i < 5; i++ {
		tx := buildTx(t, tg, key, last, last, fmt.Sprintf("support-b-%d", i))
		info, err := tg.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		last = info.ID
	}
	c, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := tg.InfoOf(a.ID)
	bi, _ := tg.InfoOf(b.ID)
	ci, _ := tg.InfoOf(c.ID)
	winner := 0
	for _, info := range []Info{ai, bi, ci} {
		if info.Status != StatusRejected {
			winner++
		}
	}
	if winner != 1 {
		t.Errorf("%d winners after re-resolution", winner)
	}
	if bi.Status == StatusRejected && bi.CumulativeWeight > ai.CumulativeWeight &&
		ai.Status != StatusRejected && ai.Status != StatusConfirmed {
		t.Error("heavier branch lost to lighter unconfirmed branch")
	}
}
