package tangle

import (
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
)

func TestShardOrderPartitionsAttachmentOrder(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)

	var ids [3][]hashutil.Hash
	for i := 0; i < 30; i++ {
		shard := uint32(i % 3)
		trunk, branch, err := tg.SelectTips(StrategyUniform)
		if err != nil {
			t.Fatalf("select tips: %v", err)
		}
		tx := buildTx(t, tg, key, trunk, branch, fmt.Sprintf("s%d-%d", shard, i))
		info, err := tg.AttachShard(tx.View(), tx.ID(), shard)
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		ids[shard] = append(ids[shard], info.ID)
	}

	// Genesis lives in the control namespace.
	if got := tg.ShardSize(0); got != 10+2 {
		t.Fatalf("shard 0 size = %d, want 12", got)
	}
	for s := uint32(1); s < 3; s++ {
		if got := tg.ShardSize(s); got != 10 {
			t.Fatalf("shard %d size = %d, want 10", s, got)
		}
	}
	if got, want := fmt.Sprint(tg.Shards()), "[0 1 2]"; got != want {
		t.Fatalf("Shards() = %s, want %s", got, want)
	}
	res := tg.ResidentByShard()
	if res[0] != 12 || res[1] != 10 || res[2] != 10 {
		t.Fatalf("ResidentByShard() = %v", res)
	}

	// Per-shard order preserves attachment order and carries only that
	// shard's vertices; export pages agree with the ID pages.
	for s := uint32(1); s < 3; s++ {
		got := tg.OrderedShardIDs(s, 0, 100)
		if len(got) != len(ids[s]) {
			t.Fatalf("shard %d: %d ids, want %d", s, len(got), len(ids[s]))
		}
		for i, id := range got {
			if id != ids[s][i] {
				t.Fatalf("shard %d: order mismatch at %d", s, i)
			}
			if sh, ok := tg.ShardOf(id); !ok || sh != s {
				t.Fatalf("ShardOf(%s) = %d,%v, want %d", id.Short(), sh, ok, s)
			}
		}
		pageIDs := tg.OrderedShardIDs(s, 2, 4)
		encodings, scanned := tg.AppendEncodedShardRange(nil, s, 2, 4, nil)
		if len(pageIDs) != 4 || len(encodings) != 4 || scanned != 4 {
			t.Fatalf("shard %d encoded page: %d ids, %d encodings, want 4", s, len(pageIDs), len(encodings))
		}
		for i, id := range pageIDs {
			if id != ids[s][2+i] || hashutil.Sum(encodings[i]) != id {
				t.Fatalf("shard %d encoded page mismatch at %d", s, i)
			}
		}
	}

	// Paging past the end and empty namespaces return nil.
	if encodings, scanned := tg.AppendEncodedShardRange(nil, 9, 0, 10, nil); encodings != nil || scanned != 0 {
		t.Fatal("an empty namespace has an encoded page")
	}
	if tg.OrderedShardIDs(1, 100, 10) != nil {
		t.Fatal("out-of-range pages must be nil")
	}
}

func TestShardOrderSurvivesSnapshot(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 2
	tg, key := newTangle(t, cfg, clk)

	for i := 0; i < 40; i++ {
		shard := uint32(1 + i%2)
		trunk, branch, err := tg.SelectTips(StrategyUniform)
		if err != nil {
			t.Fatalf("select tips: %v", err)
		}
		tx := buildTx(t, tg, key, trunk, branch, fmt.Sprintf("s%d-%d", shard, i))
		if _, err := tg.AttachShard(tx.View(), tx.ID(), shard); err != nil {
			t.Fatalf("attach: %v", err)
		}
		clk.Advance(time.Second)
	}

	before := tg.ResidentByShard()
	dropped := tg.SnapshotBefore(clk.Now().Add(-5 * time.Second))
	if dropped == 0 {
		t.Fatal("snapshot dropped nothing; test shape is wrong")
	}

	// The per-shard orders must shrink consistently with the global
	// resident set: every surviving ID is still resident and tagged with
	// its shard, and the per-shard totals sum to the ledger size.
	after := tg.ResidentByShard()
	total := 0
	for s, n := range after {
		total += n
		if n > before[s] {
			t.Fatalf("shard %d grew across snapshot: %d -> %d", s, before[s], n)
		}
		for _, id := range tg.OrderedShardIDs(s, 0, 1<<20) {
			if sh, ok := tg.ShardOf(id); !ok || sh != s {
				t.Fatalf("stale id %s in shard %d order after snapshot", id.Short(), s)
			}
		}
	}
	if total != tg.Size() {
		t.Fatalf("shard totals %d != ledger size %d after snapshot", total, tg.Size())
	}
}
