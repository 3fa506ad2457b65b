// Benchmarks regenerating the paper's evaluation (§VI): one testing.B
// bench per table/figure, plus the ablations DESIGN.md §4 calls out and
// micro-benchmarks of the hot paths. cmd/biot-bench runs the same
// harnesses with the full (Pi-emulated) parameters; these benches use
// laptop-scale parameters so `go test -bench=.` completes quickly.
package biot_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	biot "github.com/b-iot/biot"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/experiments"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/keydist"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// BenchmarkFig7PoWDifficulty measures PoW nonce-search time at
// increasing difficulty — the paper's Fig 7 (exponential curve).
func BenchmarkFig7PoWDifficulty(b *testing.B) {
	worker := &pow.Worker{}
	for _, d := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trunk := hashutil.Sum([]byte(fmt.Sprintf("bench-trunk-%d-%d", d, i)))
				branch := hashutil.Sum([]byte(fmt.Sprintf("bench-branch-%d-%d", d, i)))
				if _, err := worker.Search(context.Background(), trunk, branch, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8CreditTimeline runs the full Fig-8 credit-value
// simulation (100 virtual seconds, one attack) per iteration.
func BenchmarkFig8CreditTimeline(b *testing.B) {
	cfg := experiments.DefaultFig8Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.RecoveryGaps) != 1 {
			b.Fatalf("recovery gaps = %d, want 1", len(res.RecoveryGaps))
		}
	}
}

// BenchmarkFig9ControlExperiments runs the four Fig-9 control
// experiments (4 × 90 virtual seconds) per iteration.
func BenchmarkFig9ControlExperiments(b *testing.B) {
	cfg := experiments.DefaultFig9Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10AESMessageLength measures AES sealing across the
// paper's message-length sweep — Fig 10 (linear in length).
func BenchmarkFig10AESMessageLength(b *testing.B) {
	key, err := dataauth.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	for _, exp := range []int{6, 10, 14, 18, 20} {
		size := 1 << exp
		msg := make([]byte, size)
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := dataauth.Encrypt(key, msg, dataauth.SchemeGCM); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSecurityMatrix runs the full measured §VI-C security matrix
// per iteration (five live attack scenarios).
func BenchmarkSecurityMatrix(b *testing.B) {
	cfg := experiments.DefaultSecurityConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSecurity(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if !row.Pass {
				b.Fatalf("scenario %q failed: %s", row.Threat, row.Detail)
			}
		}
	}
}

// BenchmarkThroughputDAGvsChain runs the §II DAG-vs-chain comparison
// (reduced workload) per iteration.
func BenchmarkThroughputDAGvsChain(b *testing.B) {
	cfg := experiments.QuickThroughputConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunThroughput(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatalf("rows = %d, want 2", len(res.Rows))
		}
	}
}

// BenchmarkKeyDistProtocol measures one honest Fig-4 exchange (three
// messages, two ECIES ops, four signatures) per iteration.
func BenchmarkKeyDistProtocol(b *testing.B) {
	manager, err := identity.Generate()
	if err != nil {
		b.Fatal(err)
	}
	device, err := identity.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := keydist.NewManagerSession(manager, device.Public())
		if err != nil {
			b.Fatal(err)
		}
		ds := keydist.NewDeviceSession(device, manager.Public())
		m1, err := ms.M1(device.BoxPublic())
		if err != nil {
			b.Fatal(err)
		}
		m2, err := ds.HandleM1(m1)
		if err != nil {
			b.Fatal(err)
		}
		m3, err := ms.HandleM2(m2)
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.HandleM3(m3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDifficultyPolicy compares the three Cr→D mappings on
// the Fig-9 harness — the DESIGN.md §4 policy ablation.
func BenchmarkAblationDifficultyPolicy(b *testing.B) {
	base := experiments.DefaultFig9Config()
	policies := map[string]core.DifficultyPolicy{
		"additive": core.AdditivePolicy{Params: base.Params, Beta: 10, Gamma: 3},
		"inverse":  core.DefaultInversePolicy(base.Params),
		"static":   core.StaticPolicy{Difficulty: base.Params.InitialDifficulty},
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			cfg := base
			cfg.Policy = policy
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig9(cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Report the honest-node speedup as the figure of merit.
				orig := res.Rows[0].AvgPowTime
				norm := res.Rows[1].AvgPowTime
				if norm > 0 {
					b.ReportMetric(orig.Seconds()/norm.Seconds(), "speedup")
				}
			}
		})
	}
}

// BenchmarkAblationTipSelection compares uniform random tip selection
// against the MCMC weighted walk on a growing tangle.
func BenchmarkAblationTipSelection(b *testing.B) {
	for _, strategy := range []tangle.TipStrategy{tangle.StrategyUniform, tangle.StrategyWeightedWalk} {
		b.Run(strategy.String(), func(b *testing.B) {
			key, err := identity.Generate()
			if err != nil {
				b.Fatal(err)
			}
			tg, err := tangle.New(tangle.DefaultConfig(), key.Public(), nil)
			if err != nil {
				b.Fatal(err)
			}
			seedTangle(b, tg, key, 300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tg.SelectTips(strategy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEncryptionScheme compares the two AES constructions
// at the paper's reference 256 KiB message size.
func BenchmarkAblationEncryptionScheme(b *testing.B) {
	key, err := dataauth.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256<<10)
	for _, scheme := range []dataauth.Scheme{dataauth.SchemeGCM, dataauth.SchemeCTRHMAC} {
		b.Run(scheme.String(), func(b *testing.B) {
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				if _, err := dataauth.Encrypt(key, msg, scheme); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTangleAttach measures raw ledger attachment (no PoW, no
// signatures) — the full node's structural hot path.
func BenchmarkTangleAttach(b *testing.B) {
	key, err := identity.Generate()
	if err != nil {
		b.Fatal(err)
	}
	tg, err := tangle.New(tangle.DefaultConfig(), key.Public(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trunk, branch, err := tg.SelectTips(tangle.StrategyUniform)
		if err != nil {
			b.Fatal(err)
		}
		t := &txn.Transaction{
			Trunk:   trunk,
			Branch:  branch,
			Kind:    txn.KindData,
			Payload: []byte("bench"),
			Nonce:   uint64(i),
		}
		t.Sign(key)
		if _, err := tg.Attach(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxEncodeDecode measures the canonical codec round-trip.
func BenchmarkTxEncodeDecode(b *testing.B) {
	key, err := identity.Generate()
	if err != nil {
		b.Fatal(err)
	}
	t := &txn.Transaction{
		Trunk:   hashutil.Sum([]byte("trunk")),
		Branch:  hashutil.Sum([]byte("branch")),
		Kind:    txn.KindData,
		Payload: make([]byte, 256),
	}
	t.Sign(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := t.Encode()
		if _, err := txn.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPostReading measures the complete light-node
// pipeline: tip fetch + validation + sign + PoW + admission.
func BenchmarkEndToEndPostReading(b *testing.B) {
	params := biot.DefaultCreditParams()
	params.InitialDifficulty = 8
	params.MinDifficulty = 1
	sys, err := biot.NewSystem(biot.SystemConfig{Credit: params})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	dev, err := sys.NewDevice(biot.DeviceConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys.AuthorizeDevice(dev.Key())
	if err := sys.PublishAuthorization(context.Background()); err != nil {
		b.Fatal(err)
	}
	payload := []byte("sensor=temperature;value=21.5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.PostReading(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// seedTangle attaches n simple transactions.
func seedTangle(tb testing.TB, tg *tangle.Tangle, key *identity.KeyPair, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		trunk, branch, err := tg.SelectTips(tangle.StrategyUniform)
		if err != nil {
			tb.Fatal(err)
		}
		t := &txn.Transaction{
			Trunk:   trunk,
			Branch:  branch,
			Kind:    txn.KindData,
			Payload: fmt.Appendf(nil, "seed-%d", i),
			Nonce:   uint64(i),
		}
		t.Sign(key)
		if _, err := tg.Attach(t); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScalabilitySweep measures admission throughput as the device
// population grows (the §I scalability goal, measured).
func BenchmarkScalabilitySweep(b *testing.B) {
	cfg := experiments.ScalabilityConfig{
		DeviceCounts: []int{1, 4, 8},
		TxPerDevice:  5,
		Difficulty:   10,
		PayloadBytes: 64,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScalability(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].TPS, "tps@8dev")
	}
}

// BenchmarkTangleSnapshot measures local-snapshot compaction over a
// 2000-vertex tangle.
func BenchmarkTangleSnapshot(b *testing.B) {
	key, err := identity.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
		cfg := tangle.DefaultConfig()
		cfg.ConfirmationWeight = 3
		tg, err := tangle.New(cfg, key.Public(), vc)
		if err != nil {
			b.Fatal(err)
		}
		last := tg.Genesis()[0]
		for j := 0; j < 2000; j++ {
			vc.Advance(time.Second)
			tx := &txn.Transaction{
				Trunk:   last,
				Branch:  last,
				Kind:    txn.KindData,
				Payload: fmt.Appendf(nil, "s-%d", j),
				Nonce:   uint64(j),
			}
			tx.Sign(key)
			info, err := tg.Attach(tx)
			if err != nil {
				b.Fatal(err)
			}
			last = info.ID
		}
		b.StartTimer()
		if dropped := tg.Snapshot(vc.Now(), 5*time.Minute); dropped == 0 {
			b.Fatal("snapshot dropped nothing")
		}
	}
}

// BenchmarkLazyResistAblation runs the §III lazy-tip inflation ablation
// (uniform vs weighted-walk tip selection) per iteration.
func BenchmarkLazyResistAblation(b *testing.B) {
	cfg := experiments.LazyResistConfig{HonestTxs: 100, LazyTips: 30, Selections: 100}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLazyResist(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AttackerFrac, "uniform_hit")
		b.ReportMetric(res.Rows[1].AttackerFrac, "walk_hit")
	}
}

// BenchmarkAblationLambda2 runs the punishment-strictness sweep — the
// paper's "set λ2 larger" tuning claim, measured.
func BenchmarkAblationLambda2(b *testing.B) {
	cfg := experiments.DefaultLambdaSweepConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLambdaSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].PenaltyRatio, "penalty@2.0")
	}
}
