package tangle

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// buildSnapshotFixture attaches a linear chain of n transactions, each
// a minute apart, so early ones confirm and age past any cutoff.
func buildSnapshotFixture(t *testing.T, n int) (*Tangle, *clock.Virtual, []Info) {
	t.Helper()
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3
	tg, key := newTangle(t, cfg, vc)
	var infos []Info
	last := tg.Genesis()[0]
	for i := 0; i < n; i++ {
		vc.Advance(time.Minute)
		tx := buildTx(t, tg, key, last, last, fmt.Sprintf("chain-%d", i))
		info, err := tg.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
		last = info.ID
	}
	return tg, vc, infos
}

func TestSnapshotDropsOldConfirmed(t *testing.T) {
	tg, vc, infos := buildSnapshotFixture(t, 20)
	before := tg.Size()
	dropped := tg.SnapshotBefore(vc.Now().Add(-5 * time.Minute))
	if dropped == 0 {
		t.Fatal("nothing dropped")
	}
	if tg.Size() != before-dropped {
		t.Errorf("size = %d, want %d", tg.Size(), before-dropped)
	}
	if tg.SnapshottedCount() != dropped {
		t.Errorf("snapshotted = %d, want %d", tg.SnapshottedCount(), dropped)
	}
	// The earliest transaction is gone but remembered.
	if tg.Contains(infos[0].ID) {
		t.Error("oldest tx still present")
	}
	if !tg.WasSnapshotted(infos[0].ID) {
		t.Error("oldest tx not in snapshot set")
	}
	// Recent and pending transactions survive.
	lastInfo := infos[len(infos)-1]
	if !tg.Contains(lastInfo.ID) {
		t.Error("newest tx dropped")
	}
	// Genesis is always retained.
	for _, g := range tg.Genesis() {
		if !tg.Contains(g) {
			t.Error("genesis dropped")
		}
	}
	if s := tg.StatsNow(); s.Snapshotted != dropped {
		t.Errorf("stats snapshotted = %d", s.Snapshotted)
	}
}

func TestSnapshotKeepsTipsAndPending(t *testing.T) {
	tg, vc, _ := buildSnapshotFixture(t, 10)
	tg.SnapshotBefore(vc.Now()) // most aggressive cutoff
	if tg.TipCount() == 0 {
		t.Fatal("snapshot emptied the tip pool")
	}
	for _, id := range tg.Tips() {
		if !tg.Contains(id) {
			t.Error("tip not contained after snapshot")
		}
	}
	// Everything still present is either unconfirmed, a tip, or a
	// parent of something unconfirmed.
	for _, tx := range tg.ExportRange(0, tg.Size()) {
		info, err := tg.InfoOf(tx.ID())
		if err != nil {
			t.Fatal(err)
		}
		_ = info
	}
}

// TestSnapshotCutsBySignedTime pins the boundary to the signed
// timestamp. On a chain stamped a minute apart, a confirmed vertex with
// a confirmed approver goes when it was signed before the cutoff and
// stays when it was signed at it. A vertex stamped an hour ahead of the
// clock stays through every cut until a cutoff passes its stamp.
func TestSnapshotCutsBySignedTime(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3
	tg, key := newTangle(t, cfg, vc)
	const ahead = 5
	var ids []hashutil.Hash
	last := tg.Genesis()[0]
	for i := 0; i < 20; i++ {
		vc.Advance(time.Minute) // chain-i is signed i+1 minutes in
		tx := buildTx(t, tg, key, last, last, fmt.Sprintf("chain-%d", i))
		if i == ahead {
			tx = &txn.Transaction{Trunk: last, Branch: last, Timestamp: vc.Now().Add(time.Hour), Kind: txn.KindData, Payload: []byte("ahead")}
			tx.Sign(key)
		}
		info, err := tg.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		last = info.ID
	}

	const atCutoff = 13
	cutoff := vc.Now().Add(-6 * time.Minute) // chain-13's stamp
	for _, i := range []int{atCutoff - 1, atCutoff, ahead} {
		info, err := tg.InfoOf(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		next, err := tg.InfoOf(ids[i+1])
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusConfirmed || next.Status != StatusConfirmed {
			t.Fatalf("chain-%d is %v with a %v approver, want both confirmed", i, info.Status, next.Status)
		}
	}
	if tg.SnapshotBefore(cutoff) == 0 {
		t.Fatal("nothing dropped")
	}
	for i, id := range ids {
		if cut, want := tg.WasSnapshotted(id), i < atCutoff && i != ahead; cut != want {
			t.Errorf("chain-%d: snapshotted %v, want %v", i, cut, want)
		}
	}

	vc.Advance(2 * time.Hour)
	tg.SnapshotBefore(vc.Now())
	if !tg.WasSnapshotted(ids[ahead]) {
		t.Error("a cutoff past the ahead stamp kept it resident")
	}
}

func TestSnapshotRejectsAttachToPrunedParent(t *testing.T) {
	tg, vc, infos := buildSnapshotFixture(t, 20)
	key := mustKey(t)
	tg.SnapshotBefore(vc.Now().Add(-5 * time.Minute))
	old := infos[0].ID
	if tg.Contains(old) {
		t.Fatalf("fixture did not prune the oldest tx")
	}
	tx := buildTx(t, tg, key, old, old, "necromancer")
	if _, err := tg.Attach(tx); !errors.Is(err, ErrSnapshottedParent) {
		t.Errorf("err = %v, want ErrSnapshottedParent", err)
	}
}

func TestSnapshotRejectsReattachOfPruned(t *testing.T) {
	tg, vc, infos := buildSnapshotFixture(t, 20)
	tg.SnapshotBefore(vc.Now().Add(-5 * time.Minute))
	if tg.Contains(infos[0].ID) {
		t.Fatalf("fixture did not prune the oldest tx")
	}
	// The original bytes are gone, so a re-attach is refused as a
	// duplicate through the snapshotted duplicate guard.
	if !tg.WasSnapshotted(infos[0].ID) {
		t.Error("pruned tx missing from duplicate guard")
	}
}

func TestSnapshotPreservesDoubleSpendFinality(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 2
	tg, key := newTangle(t, cfg, vc)
	spender := mustKey(t)
	g := tg.Genesis()

	// Spend seq 0 and confirm it with follow-on traffic.
	spend, err := tg.Attach(transferTx(t, tg, spender, g[0], g[1], victim(t), 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	last := spend.ID
	for i := 0; i < 4; i++ {
		vc.Advance(time.Minute)
		tx := buildTx(t, tg, key, last, last, fmt.Sprintf("conf-%d", i))
		info, err := tg.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		last = info.ID
	}
	info, err := tg.InfoOf(spend.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusConfirmed {
		t.Fatalf("spend not confirmed (weight %d)", info.CumulativeWeight)
	}

	// Snapshot it away.
	vc.Advance(time.Hour)
	tg.SnapshotBefore(vc.Now().Add(-30 * time.Minute))
	if tg.Contains(spend.ID) {
		t.Fatalf("spend survived the snapshot; nothing to test")
	}

	// A conflicting spend of the same (account, seq) must still lose —
	// against the pruned, confirmed winner.
	trunk, branch, err := tg.SelectTips(StrategyUniform)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := tg.Attach(transferTx(t, tg, spender, trunk, branch, victim(t), 99, 0))
	if err != nil {
		t.Fatal(err)
	}
	evilInfo, err := tg.InfoOf(evil.ID)
	if err != nil {
		t.Fatal(err)
	}
	if evilInfo.Status != StatusRejected {
		t.Errorf("post-snapshot double spend status = %v, want rejected", evilInfo.Status)
	}
}

func TestSnapshotIdempotentAndBounded(t *testing.T) {
	tg, vc, _ := buildSnapshotFixture(t, 30)
	first := tg.SnapshotBefore(vc.Now().Add(-5 * time.Minute))
	second := tg.SnapshotBefore(vc.Now().Add(-5 * time.Minute))
	if second != 0 {
		t.Errorf("second snapshot dropped %d more without new traffic", second)
	}
	if first == 0 {
		t.Error("first snapshot dropped nothing")
	}
	// The ledger still works after snapshotting.
	key := mustKey(t)
	attachOne(t, tg, key, "post-snapshot")
}

func TestSnapshotExportStillTopological(t *testing.T) {
	tg, vc, _ := buildSnapshotFixture(t, 25)
	tg.SnapshotBefore(vc.Now().Add(-5 * time.Minute))
	// Export remains in attachment order; parents of retained txs are
	// either retained (and earlier) or snapshotted.
	seen := make(map[string]bool)
	for _, tx := range tg.ExportRange(0, tg.Size()) {
		seen[tx.ID().Hex()] = true
		if tx.Trunk.IsZero() { // genesis
			continue
		}
		trunkOK := seen[tx.Trunk.Hex()] || tg.WasSnapshotted(tx.Trunk)
		branchOK := seen[tx.Branch.Hex()] || tg.WasSnapshotted(tx.Branch)
		if !trunkOK || !branchOK {
			t.Fatalf("tx %s has a dangling parent after snapshot", tx.ID().Short())
		}
	}
}

// TestSnapshotUnpinsPrunedVertices: the attachment-order indexes and
// the approver lists hold vertices by pointer, so a snapshot has to let
// go of every pruned one — in an index, or in the approver list of a
// vertex that stays (genesis is never pruned and was approved by the
// oldest, long-pruned, transactions) — or "pruned" would only mean
// "unlisted". The approver COUNT is ledger state and must not change.
func TestSnapshotUnpinsPrunedVertices(t *testing.T) {
	tg, vc, _ := buildSnapshotFixture(t, 40)
	genesis := tg.Genesis()[0]
	before, err := tg.InfoOf(genesis)
	if err != nil {
		t.Fatal(err)
	}
	if tg.SnapshotBefore(vc.Now().Add(-5*time.Minute)) == 0 {
		t.Fatal("nothing dropped")
	}
	after, err := tg.InfoOf(genesis)
	if err != nil {
		t.Fatal(err)
	}
	if after.DirectApprovers != before.DirectApprovers || before.DirectApprovers == 0 {
		t.Errorf("genesis had %d direct approvers, has %d after the snapshot", before.DirectApprovers, after.DirectApprovers)
	}

	tg.mu.RLock()
	defer tg.mu.RUnlock()
	indexes := map[string]*pagedIndex{"order": &tg.order}
	for kind, x := range tg.byKind {
		indexes[fmt.Sprintf("byKind[%v]", kind)] = x
	}
	for shard, x := range tg.shardOrder {
		indexes[fmt.Sprintf("shardOrder[%d]", shard)] = x
	}
	for name, x := range indexes {
		for _, page := range x.pages[:cap(x.pages)] { // released pages too
			if page == nil {
				continue
			}
			for _, v := range page { // the vacated tail too
				if v != nil && v.pruned {
					t.Errorf("%s still holds pruned vertex %s", name, v.id.Short())
				}
			}
		}
	}
	tg.vertices.each(func(v *vertex) {
		for _, a := range v.approvers {
			if a.pruned && a != prunedApprover {
				t.Errorf("live vertex %s still holds pruned approver %s", v.id.Short(), a.id.Short())
			}
		}
	})
}
