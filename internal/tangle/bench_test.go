package tangle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// genTxs pre-builds n attachable transactions with a realistic DAG
// shape: each approves two of the eight most recent vertices. The
// transactions carry an issuer but no signature — Attach verifies
// structure only, and skipping ECDSA keeps the benchmarks measuring the
// ledger, not the crypto.
func genTxs(tb testing.TB, tg *Tangle, n int, seed int64) []*txn.Transaction {
	tb.Helper()
	key := mustKey(tb)
	rng := rand.New(rand.NewSource(seed))
	recent := []hashutil.Hash{tg.Genesis()[0], tg.Genesis()[1]}
	out := make([]*txn.Transaction, 0, n)
	for i := 0; i < n; i++ {
		trunk := recent[rng.Intn(len(recent))]
		branch := recent[rng.Intn(len(recent))]
		tx := &txn.Transaction{
			Trunk:     trunk,
			Branch:    branch,
			Timestamp: time.Unix(1_700_000_000+int64(i), 0),
			Kind:      txn.KindData,
			Issuer:    key.Public(),
			Payload:   []byte(fmt.Sprintf("bench-%d", i)),
		}
		out = append(out, tx)
		recent = append(recent, tx.ID())
		if len(recent) > 8 {
			recent = recent[len(recent)-8:]
		}
	}
	return out
}

func benchTangle(tb testing.TB, size int) *Tangle {
	tb.Helper()
	tg, _ := newTangle(tb, DefaultConfig(), nil)
	for _, tx := range genTxs(tb, tg, size, 1) {
		if _, err := tg.Attach(tx); err != nil {
			tb.Fatalf("prebuild attach: %v", err)
		}
	}
	return tg
}

// BenchmarkTangleAttach measures raw attach cost (weight propagation,
// tip bookkeeping, event collection) with -benchmem evidence that the
// hot path no longer allocates a visited map per attach.
func BenchmarkTangleAttach(b *testing.B) {
	tg, _ := newTangle(b, DefaultConfig(), nil)
	txs := genTxs(b, tg, b.N, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.Attach(txs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTangleSelectTips measures tip-selection latency per strategy
// and tangle size. The anchored/genesis pair at each size is the
// headline: anchored weighted walks stay flat as the tangle grows while
// genesis-anchored walks scale with DAG depth.
func BenchmarkTangleSelectTips(b *testing.B) {
	for _, size := range []int{1_000, 10_000} {
		tg := benchTangle(b, size)
		b.Run(fmt.Sprintf("uniform/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tg.SelectTips(StrategyUniform); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("walk-anchored/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tg.SelectTips(StrategyWeightedWalk); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("walk-genesis/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tg.SelectTipsGenesisWalk(StrategyWeightedWalk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTangleConcurrentSelectDuringAttach drives parallel tip
// selections while a writer goroutine keeps attaching — the
// read-concurrency the RLock redesign buys. Run under -race by `make
// test` as the concurrent-reader smoke check.
func BenchmarkTangleConcurrentSelectDuringAttach(b *testing.B) {
	tg := benchTangle(b, 5_000)
	extra := genTxs(b, tg, 100_000, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tx := range extra {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tg.Attach(tx); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := tg.SelectTips(StrategyWeightedWalk); err != nil {
				b.Error(err)
				return
			}
		}
	})
	close(stop)
	wg.Wait()
}

// BenchmarkTangleStatsNow pins the O(1) stats path.
func BenchmarkTangleStatsNow(b *testing.B) {
	tg := benchTangle(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tg.StatsNow()
	}
}

// BenchmarkTangleExportRange measures one bounded sync page against the
// tangle, the unit of work the node sync path holds the read lock for.
func BenchmarkTangleExportRange(b *testing.B) {
	tg := benchTangle(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := tg.ExportRange((i*256)%9_000, 256)
		if len(page) == 0 {
			b.Fatal("empty page")
		}
	}
}
