package tangle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// ledgerModel is the oracle for the ID table and the paged indexes: what
// the ledger holds, kept in a plain map and plain slices.
type ledgerModel struct {
	enc   map[hashutil.Hash][]byte
	shard map[hashutil.Hash]uint32
	kind  map[hashutil.Hash]txn.Kind
	order []hashutil.Hash // resident IDs in attachment order
	ever  []hashutil.Hash // every ID ever attached, resident or pruned
}

func newLedgerModel(tg *Tangle) *ledgerModel {
	m := &ledgerModel{
		enc:   make(map[hashutil.Hash][]byte),
		shard: make(map[hashutil.Hash]uint32),
		kind:  make(map[hashutil.Hash]txn.Kind),
	}
	for _, id := range tg.Genesis() {
		enc, err := tg.Encoded(id)
		if err != nil {
			panic(err)
		}
		m.add(id, enc, 0, txn.KindGenesis)
	}
	return m
}

func (m *ledgerModel) add(id hashutil.Hash, enc []byte, shard uint32, kind txn.Kind) {
	m.enc[id], m.shard[id], m.kind[id] = enc, shard, kind
	m.order = append(m.order, id)
	m.ever = append(m.ever, id)
}

// prune drops the IDs the tangle reports snapshotted. The cold set is a
// plain map of its own, so it can tell the model what the table lost.
func (m *ledgerModel) prune(tg *Tangle) {
	kept := m.order[:0]
	for _, id := range m.order {
		if tg.WasSnapshotted(id) {
			delete(m.enc, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// where returns the resident IDs the filter keeps, in attachment order.
func (m *ledgerModel) where(keep func(id hashutil.Hash) bool) []hashutil.Hash {
	var out []hashutil.Hash
	for _, id := range m.order {
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
}

// check compares every read of the ledger's ID table and indexes with
// the model, over whole histories and over random pages.
func (m *ledgerModel) check(t *testing.T, step int, tg *Tangle, rng *rand.Rand) {
	t.Helper()
	if got := tg.Size(); got != len(m.order) {
		t.Fatalf("step %d: Size %d, model %d", step, got, len(m.order))
	}
	for _, id := range m.ever {
		want, resident := m.enc[id]
		if got := tg.Contains(id); got != resident {
			t.Fatalf("step %d: Contains(%s) = %v, model %v", step, id.Short(), got, resident)
		}
		tx, err := tg.Get(id)
		if resident != (err == nil) {
			t.Fatalf("step %d: Get(%s) error %v, resident %v", step, id.Short(), err, resident)
		}
		if resident && (tx.ID() != id || !bytes.Equal(tx.Encode(), want)) {
			t.Fatalf("step %d: Get(%s) returned another transaction", step, id.Short())
		}
	}
	samePage := func(what string, ids []hashutil.Hash, encs [][]byte, want []hashutil.Hash) {
		t.Helper()
		if len(ids) != len(want) || len(encs) != len(want) {
			t.Fatalf("step %d: %s holds %d IDs and %d encodings, model %d", step, what, len(ids), len(encs), len(want))
		}
		for i, id := range want {
			if ids[i] != id || !bytes.Equal(encs[i], m.enc[id]) {
				t.Fatalf("step %d: %s entry %d is %s, model %s", step, what, i, ids[i].Short(), id.Short())
			}
		}
	}
	// sameAppended checks an Append*Range read of the page want: it
	// scanned the whole page and kept, in order, the encodings of the IDs
	// skip does not claim.
	sameAppended := func(what string, got [][]byte, scanned int, want []hashutil.Hash, skip func(id *hashutil.Hash) bool) {
		t.Helper()
		var kept []hashutil.Hash
		for _, id := range want {
			if skip == nil || !skip(&id) {
				kept = append(kept, id)
			}
		}
		if scanned != len(want) || len(got) != len(kept) {
			t.Fatalf("step %d: %s scanned %d and kept %d, model %d and %d", step, what, scanned, len(got), len(want), len(kept))
		}
		for i, id := range kept {
			if !bytes.Equal(got[i], m.enc[id]) {
				t.Fatalf("step %d: %s entry %d is not %s", step, what, i, id.Short())
			}
		}
	}
	page := func(all []hashutil.Hash) (from, limit int, want []hashutil.Hash) {
		from, limit = rng.Intn(len(all)+2)-1, rng.Intn(2*indexPage+2)
		lo := max(from, 0)
		if lo >= len(all) || limit == 0 {
			return from, limit, nil
		}
		return from, limit, all[lo:min(lo+limit, len(all))]
	}

	ids, encs := tg.EncodedRange(0, math.MaxInt)
	samePage("EncodedRange(whole)", ids, encs, m.order)
	from, limit, want := page(m.order)
	ids, encs = tg.EncodedRange(from, limit)
	samePage(fmt.Sprintf("EncodedRange(%d, %d)", from, limit), ids, encs, want)
	known := func(id *hashutil.Hash) bool { return id[0]&1 == 0 }
	got, n := tg.AppendEncodedRange(nil, from, limit, known)
	sameAppended(fmt.Sprintf("AppendEncodedRange(%d, %d)", from, limit), got, n, want, known)

	for shard := uint32(0); shard < 3; shard++ {
		all := m.where(func(id hashutil.Hash) bool { return m.shard[id] == shard })
		if got := tg.ShardSize(shard); got != len(all) {
			t.Fatalf("step %d: ShardSize(%d) %d, model %d", step, shard, got, len(all))
		}
		encs, n := tg.AppendEncodedShardRange(nil, shard, 0, math.MaxInt, nil)
		sameAppended(fmt.Sprintf("AppendEncodedShardRange(%d, whole)", shard), encs, n, all, nil)
		from, limit, want := page(all)
		encs, _ = tg.AppendEncodedShardRange(nil, shard, from, limit, nil)
		samePage(fmt.Sprintf("OrderedShardIDs and AppendEncodedShardRange(%d, %d, %d)", shard, from, limit),
			tg.OrderedShardIDs(shard, from, limit), encs, want)
		encs, n = tg.AppendEncodedShardRange(encs[:0], shard, from, limit, known)
		sameAppended(fmt.Sprintf("AppendEncodedShardRange(%d, %d, %d, known)", shard, from, limit), encs, n, want, known)
	}
	for _, kind := range []txn.Kind{txn.KindGenesis, txn.KindData, txn.KindKeyDist} {
		all := m.where(func(id hashutil.Hash) bool { return m.kind[id] == kind })
		offset := rng.Intn(len(all)+2) - 1
		want := all[min(max(offset, 0), len(all)):]
		got := tg.EncodedByKind(kind, offset)
		if len(got) != len(want) {
			t.Fatalf("step %d: EncodedByKind(%v, %d) holds %d, model %d", step, kind, offset, len(got), len(want))
		}
		for i, id := range want {
			if !bytes.Equal(got[i], m.enc[id]) {
				t.Fatalf("step %d: EncodedByKind(%v) entry %d is not %s", step, kind, i, id.Short())
			}
		}
	}
}

// TestIndexesAgreeWithAModel runs random sequences of attach,
// SnapshotBefore, journal Restore into a fresh ledger and snapshot
// bootstrap of a fresh ledger, and after every step compares Contains,
// Get, Size and the range reads over the ID table and the paged indexes
// with a plain map and plain slices. The ledger crosses several index
// pages, so appends, page-spanning reads and compaction that frees pages
// are all exercised.
func TestIndexesAgreeWithAModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
			cfg := DefaultConfig()
			cfg.ConfirmationWeight = 2
			cfg.Seed = seed
			key := mustKey(t)
			fresh := func() *Tangle {
				tg, err := New(cfg, key.Public(), vc)
				if err != nil {
					t.Fatal(err)
				}
				return tg
			}
			tg := fresh()
			m := newLedgerModel(tg)
			kinds := []txn.Kind{txn.KindData, txn.KindData, txn.KindKeyDist}
			peak := 0
			for step := 0; step < 1200; step++ {
				switch op := rng.Intn(100); {
				case op < 90:
					vc.Advance(time.Duration(rng.Intn(6)) * time.Second)
					trunk, branch, err := tg.SelectTips(StrategyUniform)
					if err != nil {
						t.Fatal(err)
					}
					tx := &txn.Transaction{
						Trunk: trunk, Branch: branch, Timestamp: vc.Now(),
						Kind: kinds[rng.Intn(len(kinds))], Payload: []byte(fmt.Sprintf("step-%d", step)),
					}
					tx.Sign(key)
					shard := uint32(rng.Intn(3))
					if _, err := tg.AttachShard(tx.View(), tx.ID(), shard); err != nil {
						t.Fatal(err)
					}
					m.add(tx.ID(), tx.Encode(), shard, tx.Kind)
				case op < 94:
					keep := time.Duration(1000+rng.Intn(6000)) * time.Second
					tg.SnapshotBefore(vc.Now().Add(-keep).Truncate(time.Duration(rng.Intn(3)) * 10 * time.Second))
					m.prune(tg)
				case op < 97: // reboot: replay the live ledger into a fresh one
					next := fresh()
					for _, id := range m.order[2:] {
						v, err := txn.ViewOf(m.enc[id])
						if err != nil {
							t.Fatal(err)
						}
						if _, err := next.RestoreShard(v, id, m.shard[id]); err != nil {
							t.Fatalf("step %d: restore %s: %v", step, id.Short(), err)
						}
					}
					tg = next
				default: // join: bootstrap a fresh ledger from this one's manifest
					next := fresh()
					if err := next.BeginBootstrap(tg.BoundaryRoots(), tg.ColdEpoch()); err != nil {
						t.Fatal(err)
					}
					for _, id := range m.order[2:] {
						v, err := txn.ViewOf(m.enc[id])
						if err != nil {
							t.Fatal(err)
						}
						if _, err := next.AttachShard(v, id, m.shard[id]); err != nil {
							t.Fatalf("step %d: bootstrap attach %s: %v", step, id.Short(), err)
						}
					}
					next.EndBootstrap()
					tg = next
				}
				m.check(t, step, tg, rng)
				peak = max(peak, len(m.order))
			}
			if peak < 2*indexPage {
				t.Fatalf("the ledger peaked at %d vertices, below two index pages", peak)
			}
		})
	}
}

// TestVertexTableProbesCollidingIDs crafts IDs that share one home slot
// under the table's seed — at the last slot, so their probe run wraps
// around the table's end — and checks that every one is found, that
// removing some (backward-shift deletion) loses none of the others, and
// that an absent ID with the same home is not found.
func TestVertexTableProbesCollidingIDs(t *testing.T) {
	x := newVertexTable()
	rng := rand.New(rand.NewSource(5))
	home := len(x.slots) - 1
	craft := func() hashutil.Hash {
		for {
			var id hashutil.Hash
			rng.Read(id[:])
			if x.home(&id) == home {
				return id
			}
		}
	}
	var vs []*vertex
	for i := 0; i < 6; i++ {
		v := &vertex{id: craft()}
		x.insert(v)
		vs = append(vs, v)
	}
	if len(x.slots) != 16 {
		t.Fatalf("table grew to %d slots; the probe run no longer shares one home", len(x.slots))
	}
	for _, v := range vs {
		if x.get(v.id) != v {
			t.Fatalf("colliding ID %s not found", v.id.Short())
		}
	}
	if absent := craft(); x.get(absent) != nil {
		t.Fatal("an absent ID sharing the home slot was found")
	}
	x.remove(vs[1].id)
	x.remove(vs[4].id)
	x.remove(craft()) // absent: a no-op
	if x.len() != 4 {
		t.Fatalf("len %d after two removals, want 4", x.len())
	}
	for i, v := range vs {
		if got, want := x.get(v.id), i != 1 && i != 4; (got == v) != want || (got != nil && got != v) {
			t.Fatalf("after removals, get(vs[%d]) = %v, want present=%v", i, got, want)
		}
	}
	// Growing re-files the run under the new table size.
	for i := 0; i < 40; i++ {
		var id hashutil.Hash
		rng.Read(id[:])
		x.insert(&vertex{id: id})
	}
	for i, v := range vs {
		if (x.get(v.id) == v) != (i != 1 && i != 4) {
			t.Fatalf("after growth, vs[%d] lookup disagrees", i)
		}
	}
}
