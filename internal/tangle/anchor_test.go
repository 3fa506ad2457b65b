package tangle

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// growChain attaches n transactions in a chain-ish shape via uniform
// selection, advancing the clock a step per attach.
func growChain(t testing.TB, tg *Tangle, vc *clock.Virtual, n int, tag string) {
	t.Helper()
	key := mustKey(t)
	for i := 0; i < n; i++ {
		if vc != nil {
			vc.Advance(time.Second)
		}
		trunk, branch, err := tg.SelectTips(StrategyUniform)
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		if _, err := tg.Attach(buildTx(t, tg, key, trunk, branch, fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatalf("attach: %v", err)
		}
	}
}

func tipSet(t testing.TB, tg *Tangle) map[hashutil.Hash]bool {
	t.Helper()
	set := make(map[hashutil.Hash]bool)
	for _, id := range tg.Tips() {
		set[id] = true
	}
	return set
}

// Anchored and genesis-started walks must both land on valid tips, at
// every tangle size, and the anchor invariant (live, confirmed,
// non-rejected entries only) must hold throughout.
func TestAnchoredAndGenesisWalksLandOnTips(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	tg, _ := newTangle(t, DefaultConfig(), vc)
	for round := 0; round < 20; round++ {
		growChain(t, tg, vc, 25, fmt.Sprintf("r%d", round))
		tips := tipSet(t, tg)
		for i := 0; i < 5; i++ {
			at, ab, err := tg.SelectTips(StrategyWeightedWalk)
			if err != nil {
				t.Fatal(err)
			}
			gt, gb, err := tg.SelectTipsGenesisWalk(StrategyWeightedWalk)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []hashutil.Hash{at, ab, gt, gb} {
				if !tips[id] {
					t.Fatalf("round %d: walk returned non-tip %s", round, id.Short())
				}
			}
		}
		checkAnchorInvariant(t, tg)
	}
	if tg.Metrics().AnchorCount.Value() == 0 {
		t.Fatal("no anchors after 500 attachments with confirmations")
	}
	if tg.Metrics().AnchorHeight.Value() == 0 {
		t.Fatal("anchor height gauge never moved")
	}
}

func checkAnchorInvariant(t testing.TB, tg *Tangle) {
	t.Helper()
	tg.mu.RLock()
	defer tg.mu.RUnlock()
	for _, id := range tg.anchors {
		v, ok := tg.vertices.lookup(id)
		if !ok {
			t.Fatalf("anchor %s is not live (snapshotted or unknown)", id.Short())
		}
		if v.status != StatusConfirmed {
			t.Fatalf("anchor %s has status %v, want confirmed", id.Short(), v.status)
		}
		if tg.wasColdLocked(id) {
			t.Fatalf("anchor %s is snapshotted", id.Short())
		}
	}
}

// A snapshot that prunes the anchor region must leave tip selection
// working immediately: anchors are purged with their vertices, walks
// fall back cleanly, and no walk ever lands in snapshotted territory.
func TestSnapshotPrunesAnchorsWalksStayValid(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3
	tg, key := newTangle(t, cfg, vc)

	// A long confirmed chain, a minute per attach, so nearly all of it
	// — including every current anchor — ages past the cutoff.
	last := tg.Genesis()[0]
	for i := 0; i < 60; i++ {
		vc.Advance(time.Minute)
		info, err := tg.Attach(buildTx(t, tg, key, last, last, fmt.Sprintf("c-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = info.ID
	}
	if tg.Metrics().AnchorCount.Value() == 0 {
		t.Fatal("fixture built no anchors")
	}
	dropped := tg.SnapshotBefore(vc.Now())
	if dropped == 0 {
		t.Fatal("snapshot dropped nothing")
	}
	checkAnchorInvariant(t, tg)

	tips := tipSet(t, tg)
	for i := 0; i < 50; i++ {
		trunk, branch, err := tg.SelectTips(StrategyWeightedWalk)
		if err != nil {
			t.Fatalf("select after snapshot: %v", err)
		}
		for _, id := range []hashutil.Hash{trunk, branch} {
			if !tips[id] {
				t.Fatalf("post-snapshot walk returned non-tip %s", id.Short())
			}
			if tg.WasSnapshotted(id) {
				t.Fatalf("walk returned snapshotted vertex %s", id.Short())
			}
		}
	}
	// And the tangle keeps growing normally from here.
	growChain(t, tg, vc, 20, "post")
	checkAnchorInvariant(t, tg)
}

// Observers are delivered events outside the ledger lock, so they may
// call back into the Tangle — this deadlocked under the old
// notify-under-lock scheme.
func TestObserverMayReenterTangle(t *testing.T) {
	tg, key := newTangle(t, DefaultConfig(), nil)
	reentered := 0
	tg.Observe(ObserverFunc(func(ev Event) {
		_ = tg.Size()           // read path
		_, _ = tg.InfoOf(ev.Tx) // another read path
		_ = tg.StatsNow()
		reentered++
	}))
	for i := 0; i < 30; i++ {
		attachOne(t, tg, key, fmt.Sprintf("re-%d", i))
	}
	if reentered == 0 {
		t.Fatal("observer never ran")
	}
}

// Events must be delivered in ledger order even under concurrent
// attaches: for any single transaction, EventApproved weights are
// non-decreasing, a confirmation is seen at most once, and every
// transaction is announced attached exactly once, after both its parents
// and before its own Attach returns (what the node's journal order rests
// on).
func TestEventOrderUnderConcurrentAttach(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)

	var obsMu sync.Mutex
	lastWeight := make(map[hashutil.Hash]float64)
	confirmed := make(map[hashutil.Hash]int)
	g := tg.Genesis()
	announced := map[hashutil.Hash]bool{g[0]: true, g[1]: true}
	tg.Observe(ObserverFunc(func(ev Event) {
		obsMu.Lock()
		defer obsMu.Unlock()
		switch ev.Kind {
		case EventAttached:
			if id := hashutil.Sum(ev.Txn.Bytes()); id != ev.Tx || announced[ev.Tx] {
				t.Errorf("attach of %s announced as %s, already announced: %v", ev.Tx.Short(), id.Short(), announced[ev.Tx])
			}
			if !announced[ev.Txn.Trunk()] || !announced[ev.Txn.Branch()] {
				t.Errorf("%s announced attached ahead of a parent", ev.Tx.Short())
			}
			announced[ev.Tx] = true
		case EventApproved:
			if ev.Weight < lastWeight[ev.Tx] {
				t.Errorf("approval weight of %s went backwards: %v after %v",
					ev.Tx.Short(), ev.Weight, lastWeight[ev.Tx])
			}
			lastWeight[ev.Tx] = ev.Weight
		case EventConfirmed:
			confirmed[ev.Tx]++
		}
	}))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := mustKey(t)
			for i := 0; i < 50; i++ {
				trunk, branch, err := tg.SelectTips(StrategyWeightedWalk)
				if err != nil {
					t.Error(err)
					return
				}
				tx := buildTx(t, tg, key, trunk, branch, fmt.Sprintf("g%d-%d", g, i))
				if _, err := tg.Attach(tx); err != nil {
					t.Error(err)
					return
				}
				obsMu.Lock()
				if !announced[tx.ID()] {
					t.Errorf("Attach of %s returned before it was announced", tx.ID().Short())
				}
				obsMu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	obsMu.Lock()
	defer obsMu.Unlock()
	if len(confirmed) == 0 {
		t.Fatal("no confirmations observed")
	}
	for id, n := range confirmed {
		if n != 1 {
			t.Errorf("tx %s confirmed %d times", id.Short(), n)
		}
	}
}

// ExportRange pages must reassemble into exactly Export's view, and
// OrderedIDs must agree with it.
func TestExportRangePagination(t *testing.T) {
	tg, _ := newTangle(t, DefaultConfig(), nil)
	growChain(t, tg, nil, 37, "p")

	full := tg.ExportRange(0, tg.Size())
	for _, pageSize := range []int{1, 7, 36, 1000} {
		var paged []*txn.Transaction
		for from := 0; ; from += pageSize {
			page := tg.ExportRange(from, pageSize)
			paged = append(paged, page...)
			if len(page) < pageSize {
				break
			}
		}
		if len(paged) != len(full) {
			t.Fatalf("pageSize %d: %d txs, want %d", pageSize, len(paged), len(full))
		}
		for i := range full {
			if full[i].ID() != paged[i].ID() {
				t.Fatalf("pageSize %d: tx %d differs", pageSize, i)
			}
		}
		// The forwarding twin serves the same range: the same IDs, and
		// for each the stored bytes ExportRange's clone would encode to.
		for from := 0; from < len(full)+pageSize; from += pageSize {
			page := tg.ExportRange(from, pageSize)
			ids, encodings := tg.EncodedRange(from, pageSize)
			if len(ids) != len(page) || len(encodings) != len(page) {
				t.Fatalf("pageSize %d from %d: %d ids and %d encodings for %d txs", pageSize, from, len(ids), len(encodings), len(page))
			}
			for i, tx := range page {
				if ids[i] != tx.ID() || !bytes.Equal(encodings[i], tx.Encode()) {
					t.Fatalf("pageSize %d from %d: entry %d differs from ExportRange's", pageSize, from, i)
				}
			}
		}
	}
	ids := tg.OrderedIDs(0, 1<<20)
	if len(ids) != len(full) {
		t.Fatalf("OrderedIDs len %d, want %d", len(ids), len(full))
	}
	for i, tx := range full {
		if tx.ID() != ids[i] {
			t.Fatalf("OrderedIDs[%d] mismatch", i)
		}
	}
	if got := tg.ExportRange(len(full)+5, 10); got != nil {
		t.Errorf("out-of-range export returned %d txs", len(got))
	}
	if got := tg.ExportRange(0, 0); got != nil {
		t.Errorf("zero-limit export returned %d txs", len(got))
	}
}

// recountStats recomputes Stats by full scan — the original O(n)
// implementation — to pin the incremental counters against it.
func recountStats(tg *Tangle) Stats {
	tg.mu.RLock()
	defer tg.mu.RUnlock()
	s := Stats{
		Transactions: tg.vertices.len(),
		Tips:         len(tg.tips),
		Snapshotted:  tg.nCold,
	}
	tg.vertices.each(func(v *vertex) {
		switch v.status {
		case StatusConfirmed:
			s.Confirmed++
		case StatusRejected:
			s.Rejected++
		}
	})
	for _, ids := range tg.spends {
		if len(ids) > 1 {
			s.Conflicts++
		}
	}
	return s
}

// The regression guard: after a randomized attach / double-spend /
// snapshot sequence, the O(1) StatsNow counters must match a full
// recomputation. Seed-pinned for reproducibility.
func TestStatsNowMatchesRecountUnderRandomizedOps(t *testing.T) {
	for _, seed := range []int64{7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
			cfg := DefaultConfig()
			cfg.ConfirmationWeight = 3
			cfg.Seed = seed
			tg, key := newTangle(t, cfg, vc)
			spender := mustKey(t)
			var seq uint64

			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // honest attach
					vc.Advance(time.Duration(rng.Intn(30)) * time.Second)
					strategy := StrategyUniform
					if rng.Intn(2) == 0 {
						strategy = StrategyWeightedWalk
					}
					trunk, branch, err := tg.SelectTips(strategy)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tg.Attach(buildTx(t, tg, key, trunk, branch, fmt.Sprintf("s-%d", step))); err != nil {
						t.Fatal(err)
					}
				case op < 8: // transfer, often a deliberate conflict
					s := seq
					if rng.Intn(2) == 0 && seq > 0 {
						s--
					} else {
						seq++
					}
					trunk, branch, err := tg.SelectTips(StrategyUniform)
					if err != nil {
						t.Fatal(err)
					}
					tx := transferTx(t, tg, spender, trunk, branch, key.Address(), uint64(rng.Intn(9)+1), s)
					if _, err := tg.Attach(tx); err != nil {
						t.Fatal(err)
					}
				default: // snapshot with a random retention window
					keep := time.Duration(rng.Intn(120)) * time.Second
					tg.SnapshotBefore(vc.Now().Add(-keep))
				}

				if got, want := tg.StatsNow(), recountStats(tg); got != want {
					t.Fatalf("step %d: StatsNow %+v != recount %+v", step, got, want)
				}
			}
		})
	}
}
