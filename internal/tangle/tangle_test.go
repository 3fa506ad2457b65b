package tangle

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

func mustKey(t testing.TB) *identity.KeyPair {
	t.Helper()
	k, err := identity.Generate()
	if err != nil {
		t.Fatalf("generate key: %v", err)
	}
	return k
}

func newTangle(t testing.TB, cfg Config, clk clock.Clock) (*Tangle, *identity.KeyPair) {
	t.Helper()
	key := mustKey(t)
	tg, err := New(cfg, key.Public(), clk)
	if err != nil {
		t.Fatalf("new tangle: %v", err)
	}
	return tg, key
}

// buildTx creates a signed transaction approving the given parents,
// stamped at tg's now: a snapshot cuts by the signed timestamp, so a
// fixture that ages its tangle's clock must age its stamps with it.
func buildTx(t testing.TB, tg *Tangle, key *identity.KeyPair, trunk, branch hashutil.Hash, tag string) *txn.Transaction {
	t.Helper()
	tx := &txn.Transaction{
		Trunk:     trunk,
		Branch:    branch,
		Timestamp: tg.clk.Now(),
		Kind:      txn.KindData,
		Payload:   []byte(tag),
	}
	tx.Sign(key)
	return tx
}

// attachOne selects tips and attaches a fresh transaction.
func attachOne(t testing.TB, tg *Tangle, key *identity.KeyPair, tag string) Info {
	t.Helper()
	trunk, branch, err := tg.SelectTips(StrategyUniform)
	if err != nil {
		t.Fatalf("select tips: %v", err)
	}
	info, err := tg.Attach(buildTx(t, tg, key, trunk, branch, tag))
	if err != nil {
		t.Fatalf("attach %s: %v", tag, err)
	}
	return info
}

func TestGenesisDeterministicAcrossNodes(t *testing.T) {
	key := mustKey(t)
	t1, err := New(DefaultConfig(), key.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := New(DefaultConfig(), key.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Genesis() != t2.Genesis() {
		t.Error("same manager key produced different genesis")
	}
	other := mustKey(t)
	t3, err := New(DefaultConfig(), other.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Genesis() == t3.Genesis() {
		t.Error("different manager keys share genesis")
	}
}

func TestNewValidation(t *testing.T) {
	key := mustKey(t)
	if _, err := New(Config{}, key.Public(), nil); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(DefaultConfig(), nil, nil); err == nil {
		t.Error("nil manager key accepted")
	}
}

func TestAttachBasics(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	if tg.Size() != 2 || tg.TipCount() != 2 {
		t.Fatalf("fresh tangle: size=%d tips=%d", tg.Size(), tg.TipCount())
	}
	info := attachOne(t, tg, key, "first")
	if info.Status != StatusPending {
		t.Errorf("status = %v", info.Status)
	}
	if tg.Size() != 3 {
		t.Errorf("size = %d", tg.Size())
	}
	if !tg.Contains(info.ID) {
		t.Error("attached tx not contained")
	}
	got, err := tg.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "first" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestAttachRejectsDuplicates(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	g := tg.Genesis()
	tx := buildTx(t, tg, key, g[0], g[1], "dup")
	if _, err := tg.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Attach(tx); !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v, want ErrDuplicate", err)
	}
}

func TestAttachRejectsUnknownParents(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	g := tg.Genesis()
	tx := buildTx(t, tg, key, hashutil.Sum([]byte("missing")), g[0], "orphan")
	if _, err := tg.Attach(tx); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("err = %v, want ErrUnknownParent", err)
	}
}

func TestTipsEvolve(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	g := tg.Genesis()
	// Approve both genesis transactions explicitly: they retire from
	// the tip pool and the new transaction becomes the only tip.
	tx := buildTx(t, tg, key, g[0], g[1], "a")
	info, err := tg.Attach(tx)
	if err != nil {
		t.Fatal(err)
	}
	tips := tg.Tips()
	if len(tips) != 1 || tips[0] != info.ID {
		t.Errorf("tips = %v, want just %v", tips, info.ID)
	}
}

func TestSameParentTwiceCountsOnce(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	g := tg.Genesis()
	tx := buildTx(t, tg, key, g[0], g[0], "same-parent")
	if _, err := tg.Attach(tx); err != nil {
		t.Fatal(err)
	}
	w, err := tg.Weight(g[0])
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 { // 1 + one approval
		t.Errorf("weight = %v, want 2 (single approval)", w)
	}
}

func TestWeightGrowsWithApprovals(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	first := attachOne(t, tg, key, "w0")
	w0, err := tg.Weight(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if w0 != 1 {
		t.Errorf("fresh weight = %v, want 1", w0)
	}
	// Two children approving it directly.
	for i := 0; i < 2; i++ {
		tx := buildTx(t, tg, key, first.ID, first.ID, fmt.Sprintf("child-%d", i))
		if _, err := tg.Attach(tx); err != nil {
			t.Fatal(err)
		}
	}
	w1, err := tg.Weight(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != 3 {
		t.Errorf("weight = %v, want 3", w1)
	}
}

func TestConfirmationByCumulativeWeight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3
	tg, key := newTangle(t, cfg, nil)

	first := attachOne(t, tg, key, "root")
	// Build a chain on top: each new tx adds cumulative weight to
	// `first`.
	last := first.ID
	for i := 0; i < 3; i++ {
		tx := buildTx(t, tg, key, last, last, fmt.Sprintf("chain-%d", i))
		info, err := tg.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		last = info.ID
	}
	info, err := tg.InfoOf(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusConfirmed {
		t.Errorf("status = %v after weight %d, want confirmed", info.Status, info.CumulativeWeight)
	}
	if info.CumulativeWeight < cfg.ConfirmationWeight {
		t.Errorf("cumulative weight = %d", info.CumulativeWeight)
	}
}

// Confirmed set is append-only: once confirmed, never unconfirmed.
func TestConfirmedAppendOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 2
	tg, key := newTangle(t, cfg, nil)
	confirmed := make(map[hashutil.Hash]bool)
	var all []hashutil.Hash
	for i := 0; i < 60; i++ {
		info := attachOne(t, tg, key, fmt.Sprintf("tx-%d", i))
		all = append(all, info.ID)
		for _, id := range all {
			cur, err := tg.InfoOf(id)
			if err != nil {
				t.Fatal(err)
			}
			if confirmed[id] && cur.Status != StatusConfirmed {
				t.Fatalf("tx %s regressed from confirmed to %v", id.Short(), cur.Status)
			}
			if cur.Status == StatusConfirmed {
				confirmed[id] = true
			}
		}
	}
	if len(confirmed) == 0 {
		t.Error("no transaction ever confirmed")
	}
}

// Acyclicity + parent existence: every non-genesis transaction approves
// two transactions that were attached earlier (attachment order is a
// topological order).
func TestTopologicalInvariant(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	for i := 0; i < 50; i++ {
		attachOne(t, tg, key, fmt.Sprintf("tx-%d", i))
	}
	seen := make(map[hashutil.Hash]bool)
	for _, tx := range tg.ExportRange(0, tg.Size()) {
		if tx.Kind != txn.KindGenesis {
			if !seen[tx.Trunk] || !seen[tx.Branch] {
				t.Fatalf("tx %s references a later or missing parent", tx.ID().Short())
			}
		}
		seen[tx.ID()] = true
	}
}

// Cumulative weight is monotone under attachment for every vertex.
func TestCumulativeWeightMonotone(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	weights := make(map[hashutil.Hash]int)
	var all []hashutil.Hash
	for i := 0; i < 40; i++ {
		info := attachOne(t, tg, key, fmt.Sprintf("tx-%d", i))
		all = append(all, info.ID)
		for _, id := range all {
			cur, err := tg.InfoOf(id)
			if err != nil {
				t.Fatal(err)
			}
			if cur.CumulativeWeight < weights[id] {
				t.Fatalf("cumulative weight of %s shrank: %d → %d",
					id.Short(), weights[id], cur.CumulativeWeight)
			}
			weights[id] = cur.CumulativeWeight
		}
	}
}

func TestExportOrderAndMissing(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	a := attachOne(t, tg, key, "a")
	b := attachOne(t, tg, key, "b")
	exported := tg.ExportRange(0, tg.Size())
	if len(exported) != 4 {
		t.Fatalf("export = %d txs, want 4", len(exported))
	}
	if exported[2].ID() != a.ID || exported[3].ID() != b.ID {
		t.Error("export order is not attachment order")
	}
	if !tg.Contains(a.ID) || tg.Contains(hashutil.Sum([]byte("nope"))) {
		t.Error("Contains disagrees with the export")
	}
}

func TestByKindPaging(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	for i := 0; i < 5; i++ {
		attachOne(t, tg, key, fmt.Sprintf("d%d", i))
	}
	page1 := tg.EncodedByKind(txn.KindData, 0)
	if len(page1) != 5 {
		t.Fatalf("page = %d", len(page1))
	}
	page2 := tg.EncodedByKind(txn.KindData, 3)
	if len(page2) != 2 {
		t.Errorf("offset page = %d", len(page2))
	}
	if !bytes.Equal(page2[0], page1[3]) {
		t.Error("offset paging inconsistent")
	}
	if got := tg.EncodedByKind(txn.KindData, 10); len(got) != 0 {
		t.Error("past-the-end offset returned data")
	}
	if got := tg.EncodedByKind(txn.KindData, -1); len(got) != 5 {
		t.Error("negative offset not floored")
	}
}

func TestLazyTipDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LazyParentAge = 10 * time.Second
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	tg, key := newTangle(t, cfg, vc)

	var events []Event
	tg.Observe(ObserverFunc(func(ev Event) { events = append(events, ev) }))

	// Once a parent has been approved (left the tip pool) and aged past
	// the threshold, re-approving it is lazy.
	old := attachOne(t, tg, key, "old")
	mover1 := buildTx(t, tg, key, old.ID, old.ID, "mover-1") // retires `old`
	m1, err := tg.Attach(mover1)
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(30 * time.Second)
	mover2 := buildTx(t, tg, key, m1.ID, m1.ID, "mover-2")
	if _, err := tg.Attach(mover2); err != nil {
		t.Fatal(err)
	}

	lazyBefore := countEvents(events, EventLazyTips)
	tx := buildTx(t, tg, key, old.ID, old.ID, "lazy")
	if _, err := tg.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(events, EventLazyTips); got != lazyBefore+1 {
		t.Errorf("lazy events = %d, want %d", got, lazyBefore+1)
	}
}

func TestLazyNotFlaggedForCurrentTips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LazyParentAge = 10 * time.Second
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	tg, key := newTangle(t, cfg, vc)
	var events []Event
	tg.Observe(ObserverFunc(func(ev Event) { events = append(events, ev) }))

	// Even after a long quiet period, approving *current tips* is
	// honest: the node contributes to the frontier.
	vc.Advance(time.Hour)
	attachOne(t, tg, key, "after-quiet")
	if got := countEvents(events, EventLazyTips); got != 0 {
		t.Errorf("lazy events = %d for tip-approving tx", got)
	}
}

func countEvents(events []Event, kind EventKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestApprovalEventsFeedWeights(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	var approvals []Event
	tg.Observe(ObserverFunc(func(ev Event) {
		if ev.Kind == EventApproved {
			approvals = append(approvals, ev)
		}
	}))
	first := attachOne(t, tg, key, "base")
	tx := buildTx(t, tg, key, first.ID, first.ID, "approver")
	if _, err := tg.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if len(approvals) != 1 {
		t.Fatalf("approval events = %d, want 1", len(approvals))
	}
	if approvals[0].Tx != first.ID || approvals[0].Weight != 2 {
		t.Errorf("approval event = %+v", approvals[0])
	}
	if approvals[0].Node != key.Address() {
		t.Error("approval attributed to wrong node")
	}
}

func TestStats(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	for i := 0; i < 5; i++ {
		attachOne(t, tg, key, fmt.Sprintf("s%d", i))
	}
	s := tg.StatsNow()
	if s.Transactions != 7 {
		t.Errorf("transactions = %d", s.Transactions)
	}
	if s.Tips < 1 {
		t.Errorf("tips = %d", s.Tips)
	}
	if s.Confirmed < 2 { // genesis at least
		t.Errorf("confirmed = %d", s.Confirmed)
	}
}

func TestGetUnknown(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	if _, err := tg.Get(hashutil.Sum([]byte("missing"))); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("err = %v", err)
	}
	if _, err := tg.InfoOf(hashutil.Sum([]byte("missing"))); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("err = %v", err)
	}
	if _, err := tg.Weight(hashutil.Sum([]byte("missing"))); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("err = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	info := attachOne(t, tg, key, "copy")
	got, err := tg.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	got.Payload[0] ^= 0xFF
	again, err := tg.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Payload[0] == got.Payload[0] {
		t.Error("Get exposed internal storage")
	}
}
