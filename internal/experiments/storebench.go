package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/txn"
)

// StoreBenchConfig parameterizes the durable-write-path benchmark: for
// each submitter count it drives concurrent Appends against a journal
// whose fsyncs cost SyncDelay (an in-memory disk with modeled flush
// latency, so the group-commit effect is measured deterministically
// rather than at the mercy of the host's page cache), once in
// per-record-fsync mode (MaxBatch=1 — the old write path) and once with
// group commit. A second section measures credit evaluation: ns/op of
// the from-scratch window rescan vs the incremental rolling-window
// path, over the same ledger.
type StoreBenchConfig struct {
	// SubmitterCounts lists the concurrency levels to sweep.
	SubmitterCounts []int
	// RecordsPerSubmitter is how many records each submitter appends.
	RecordsPerSubmitter int
	// SyncDelay is the modeled fsync latency.
	SyncDelay time.Duration
	// GroupMaxBatch is the records-per-fsync cap in grouped mode (0
	// selects the store default).
	GroupMaxBatch int
	// HistogramAt selects the submitter count whose grouped-mode
	// batch-size histogram is reported.
	HistogramAt int

	// CreditWindowRecords is how many transaction records sit inside
	// the ΔT window during the credit-query section.
	CreditWindowRecords int
	// CreditEvents is how many malicious events the queried node has.
	CreditEvents int
	// CreditQueries is how many difficulty evaluations each credit mode
	// performs (with a slightly advancing clock, the admission shape).
	CreditQueries int

	// Seed drives the in-memory disk.
	Seed int64
}

// DefaultStoreBenchConfig is the acceptance-snapshot scale
// (BENCH_store.json).
func DefaultStoreBenchConfig() StoreBenchConfig {
	return StoreBenchConfig{
		SubmitterCounts:     []int{1, 4, 16, 64},
		RecordsPerSubmitter: 64,
		SyncDelay:           300 * time.Microsecond,
		HistogramAt:         16,
		CreditWindowRecords: 4000,
		CreditEvents:        64,
		CreditQueries:       2000,
		Seed:                0x57042,
	}
}

// QuickStoreBenchConfig is a CI-friendly reduction.
func QuickStoreBenchConfig() StoreBenchConfig {
	return StoreBenchConfig{
		SubmitterCounts:     []int{1, 8},
		RecordsPerSubmitter: 16,
		SyncDelay:           100 * time.Microsecond,
		HistogramAt:         8,
		CreditWindowRecords: 500,
		CreditEvents:        16,
		CreditQueries:       200,
		Seed:                0x57042,
	}
}

// StoreBenchRow compares the two write paths at one concurrency level.
type StoreBenchRow struct {
	Submitters int `json:"submitters"`
	Records    int `json:"records"`
	// PerRecord* is the old write path: every record pays its own
	// serialized fsync (MaxBatch=1).
	PerRecordTxPerSec float64 `json:"per_record_tx_per_sec"`
	PerRecordSyncs    uint64  `json:"per_record_syncs"`
	// Grouped* is the group-commit path: concurrent appenders share a
	// committer's single write+fsync.
	GroupedTxPerSec float64 `json:"grouped_tx_per_sec"`
	GroupedSyncs    uint64  `json:"grouped_syncs"`
	// MeanBatch is records per fsync in grouped mode.
	MeanBatch float64 `json:"mean_batch"`
	// Speedup is grouped over per-record throughput.
	Speedup float64 `json:"speedup"`
}

// StoreBenchHistBucket is one batch-size histogram bucket (grouped mode
// at Config.HistogramAt submitters).
type StoreBenchHistBucket struct {
	Bucket  string `json:"bucket"`
	Commits uint64 `json:"commits"`
}

// StoreBenchCredit compares credit-query cost before and after the
// incremental-evaluation change.
type StoreBenchCredit struct {
	WindowRecords int `json:"window_records"`
	Events        int `json:"events"`
	Queries       int `json:"queries"`
	// RescanNsPerOp is the from-scratch evaluation (binary-search the
	// window start, then sum every in-window record — the old
	// DifficultyFor cost, kept as Ledger.RescanCredit).
	RescanNsPerOp float64 `json:"rescan_ns_per_op"`
	// IncrementalNsPerOp is the rolling-window evaluation the hot path
	// now uses: O(records entering/leaving the window), O(1) amortized.
	IncrementalNsPerOp float64 `json:"incremental_ns_per_op"`
	// Speedup is rescan over incremental.
	Speedup float64 `json:"speedup"`
}

// StoreBenchResult is the full durable-write + credit-query comparison.
type StoreBenchResult struct {
	Config    StoreBenchConfig       `json:"config"`
	Rows      []StoreBenchRow        `json:"rows"`
	Histogram []StoreBenchHistBucket `json:"histogram"`
	Credit    StoreBenchCredit       `json:"credit"`
}

// delayFS models fsync latency on top of the in-memory disk: every Sync
// sleeps SyncDelay before completing. It makes the group-commit effect
// measurable deterministically — on the raw MemFS a sync costs
// nanoseconds and both write paths would be CPU-bound.
type delayFS struct {
	chaos.FS
	delay time.Duration
}

func (d *delayFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &delayFile{File: f, delay: d.delay}, nil
}

type delayFile struct {
	chaos.File
	delay time.Duration
}

func (d *delayFile) Sync() error {
	time.Sleep(d.delay)
	return d.File.Sync()
}

// storeBenchTxs pre-builds (and signs) the workload so the measured
// section is appends only.
func storeBenchTxs(key *identity.KeyPair, submitters, per int) [][]*txn.Transaction {
	out := make([][]*txn.Transaction, submitters)
	for s := 0; s < submitters; s++ {
		out[s] = make([]*txn.Transaction, per)
		for i := 0; i < per; i++ {
			t := &txn.Transaction{
				Trunk:     hashutil.Sum([]byte("trunk")),
				Branch:    hashutil.Sum([]byte("branch")),
				Timestamp: time.Unix(int64(s*per+i+1), 0),
				Kind:      txn.KindData,
				Payload:   []byte(fmt.Sprintf("storebench-%d-%d", s, i)),
				Nonce:     uint64(i),
			}
			t.Sign(key)
			out[s][i] = t
		}
	}
	return out
}

// runStoreBenchMode appends the workload with the given batch cap and
// returns the elapsed wall clock plus the committer's accounting.
func runStoreBenchMode(cfg StoreBenchConfig, txs [][]*txn.Transaction, maxBatch int) (time.Duration, store.BatchStats, error) {
	fs := &delayFS{FS: chaos.NewMemFS(cfg.Seed), delay: cfg.SyncDelay}
	l, err := store.OpenFS(fs, "bench.log", nil)
	if err != nil {
		return 0, store.BatchStats{}, err
	}
	defer l.Close()
	l.SetBatchConfig(store.BatchConfig{MaxBatch: maxBatch})

	var wg sync.WaitGroup
	errCh := make(chan error, len(txs))
	start := time.Now()
	for _, mine := range txs {
		mine := mine
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, t := range mine {
				if err := l.Append(t); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, store.BatchStats{}, err
	default:
	}
	return elapsed, l.BatchStats(), nil
}

// runStoreBenchCredit measures credit evaluation over a populated
// window, rescan vs incremental, under an advancing clock.
func runStoreBenchCredit(cfg StoreBenchConfig) (StoreBenchCredit, error) {
	ledger, err := core.NewLedger(core.DefaultParams())
	if err != nil {
		return StoreBenchCredit{}, err
	}
	params := ledger.Params()
	addr := identity.Address(hashutil.Sum([]byte("storebench-node")))
	base := time.Unix(1_700_000_000, 0)
	// Spread the records across the ΔT window ending at base.
	step := params.DeltaT / time.Duration(cfg.CreditWindowRecords+1)
	for i := 0; i < cfg.CreditWindowRecords; i++ {
		id := hashutil.Sum([]byte(fmt.Sprintf("sb-tx-%d", i)))
		ledger.RecordTransaction(addr, id, 1, base.Add(-params.DeltaT).Add(time.Duration(i+1)*step))
	}
	for i := 0; i < cfg.CreditEvents; i++ {
		ledger.RecordMalicious(addr, core.EventRecord{
			Behaviour: core.BehaviourLazyTips,
			At:        base.Add(-time.Duration(i+1) * time.Second),
		})
	}

	// Queries advance the clock a hair each time — the admission shape:
	// every submit asks DifficultyFor at a fresh instant.
	const advance = 50 * time.Microsecond

	now := base
	rescanStart := time.Now()
	for i := 0; i < cfg.CreditQueries; i++ {
		now = now.Add(advance)
		_ = ledger.RescanCredit(addr, now)
	}
	rescanNs := float64(time.Since(rescanStart).Nanoseconds()) / float64(cfg.CreditQueries)

	now = base
	ledger.CreditOf(addr, now) // establish the rolling window
	incStart := time.Now()
	for i := 0; i < cfg.CreditQueries; i++ {
		now = now.Add(advance)
		_ = ledger.CreditOf(addr, now)
	}
	incNs := float64(time.Since(incStart).Nanoseconds()) / float64(cfg.CreditQueries)

	speedup := 0.0
	if incNs > 0 {
		speedup = rescanNs / incNs
	}
	return StoreBenchCredit{
		WindowRecords:      cfg.CreditWindowRecords,
		Events:             cfg.CreditEvents,
		Queries:            cfg.CreditQueries,
		RescanNsPerOp:      rescanNs,
		IncrementalNsPerOp: incNs,
		Speedup:            speedup,
	}, nil
}

// RunStoreBench executes the durable-write and credit-query sweeps.
func RunStoreBench(ctx context.Context, cfg StoreBenchConfig) (*StoreBenchResult, error) {
	if len(cfg.SubmitterCounts) == 0 || cfg.RecordsPerSubmitter < 1 ||
		cfg.CreditWindowRecords < 1 || cfg.CreditQueries < 1 {
		return nil, fmt.Errorf("store bench workload too small")
	}
	key, err := identity.Generate()
	if err != nil {
		return nil, err
	}
	res := &StoreBenchResult{Config: cfg}
	for _, submitters := range cfg.SubmitterCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		txs := storeBenchTxs(key, submitters, cfg.RecordsPerSubmitter)
		records := submitters * cfg.RecordsPerSubmitter

		perElapsed, perStats, err := runStoreBenchMode(cfg, txs, 1)
		if err != nil {
			return nil, fmt.Errorf("submitters=%d per-record: %w", submitters, err)
		}
		grpElapsed, grpStats, err := runStoreBenchMode(cfg, txs, cfg.GroupMaxBatch)
		if err != nil {
			return nil, fmt.Errorf("submitters=%d grouped: %w", submitters, err)
		}

		perTPS := float64(records) / perElapsed.Seconds()
		grpTPS := float64(records) / grpElapsed.Seconds()
		meanBatch := 0.0
		if grpStats.Commits > 0 {
			meanBatch = float64(grpStats.Records) / float64(grpStats.Commits)
		}
		speedup := 0.0
		if perTPS > 0 {
			speedup = grpTPS / perTPS
		}
		res.Rows = append(res.Rows, StoreBenchRow{
			Submitters:        submitters,
			Records:           records,
			PerRecordTxPerSec: perTPS,
			PerRecordSyncs:    perStats.Commits,
			GroupedTxPerSec:   grpTPS,
			GroupedSyncs:      grpStats.Commits,
			MeanBatch:         meanBatch,
			Speedup:           speedup,
		})
		if submitters == cfg.HistogramAt {
			labels := store.BatchBucketLabels()
			for i, label := range labels {
				if grpStats.Hist[i] == 0 {
					continue
				}
				res.Histogram = append(res.Histogram, StoreBenchHistBucket{
					Bucket:  label,
					Commits: grpStats.Hist[i],
				})
			}
		}
	}

	credit, err := runStoreBenchCredit(cfg)
	if err != nil {
		return nil, fmt.Errorf("credit section: %w", err)
	}
	res.Credit = credit
	return res, nil
}

// Render writes the comparison as aligned tables.
func (r *StoreBenchResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Durable write path — per-record fsync vs group commit (modeled fsync %v, %d records/submitter)\n",
		r.Config.SyncDelay, r.Config.RecordsPerSubmitter); err != nil {
		return err
	}
	t := &table{header: []string{"submitters", "records", "per_record_tx_s", "syncs", "grouped_tx_s", "syncs", "mean_batch", "speedup"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Submitters),
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%.0f", row.PerRecordTxPerSec),
			fmt.Sprintf("%d", row.PerRecordSyncs),
			fmt.Sprintf("%.0f", row.GroupedTxPerSec),
			fmt.Sprintf("%d", row.GroupedSyncs),
			fmt.Sprintf("%.1f", row.MeanBatch),
			fmt.Sprintf("%.1fx", row.Speedup),
		)
	}
	if err := t.render(w); err != nil {
		return err
	}
	if len(r.Histogram) > 0 {
		if _, err := fmt.Fprintf(w, "\nBatch-size histogram at %d submitters (records per fsync)\n", r.Config.HistogramAt); err != nil {
			return err
		}
		h := &table{header: []string{"batch", "commits"}}
		for _, b := range r.Histogram {
			h.add(b.Bucket, fmt.Sprintf("%d", b.Commits))
		}
		if err := h.render(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"\nCredit query — full window rescan vs incremental rolling window (%d in-window records, %d events)\n",
		r.Credit.WindowRecords, r.Credit.Events); err != nil {
		return err
	}
	c := &table{header: []string{"mode", "ns_per_op"}}
	c.add("rescan", fmt.Sprintf("%.0f", r.Credit.RescanNsPerOp))
	c.add("incremental", fmt.Sprintf("%.0f", r.Credit.IncrementalNsPerOp))
	c.add("speedup", fmt.Sprintf("%.1fx", r.Credit.Speedup))
	return c.render(w)
}

// CSV writes the write-path sweep as CSV.
func (r *StoreBenchResult) CSV(w io.Writer) error {
	t := &table{header: []string{"submitters", "records", "per_record_tx_per_sec", "per_record_syncs", "grouped_tx_per_sec", "grouped_syncs", "mean_batch", "speedup"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Submitters),
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%.2f", row.PerRecordTxPerSec),
			fmt.Sprintf("%d", row.PerRecordSyncs),
			fmt.Sprintf("%.2f", row.GroupedTxPerSec),
			fmt.Sprintf("%d", row.GroupedSyncs),
			fmt.Sprintf("%.2f", row.MeanBatch),
			fmt.Sprintf("%.2f", row.Speedup))
	}
	return t.csv(w)
}

// JSON writes the comparison as a machine-readable snapshot
// (BENCH_store.json in the Makefile's bench-store target).
func (r *StoreBenchResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
