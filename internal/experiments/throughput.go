package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/chainbc"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/txn"
)

// ThroughputConfig parameterizes the DAG-vs-chain comparison behind the
// paper's §II claim: "synchronous consensus mechanisms limit the system
// throughput, i.e., transactions only can be validated one by one",
// while the tangle's asynchronous consensus lets independent devices
// attach concurrently.
//
// Fairness: each DAG transaction carries difficulty TxDifficulty; each
// chain block carries BlockDifficulty over batches of ≤ BlockTxs, chosen
// so expected hash work per transaction is comparable
// (BlockDifficulty ≈ TxDifficulty + log2(BlockTxs)).
type ThroughputConfig struct {
	Devices     int
	TxPerDevice int
	// TxDifficulty is the per-transaction PoW difficulty (both systems
	// validate transaction signatures; the DAG also mines per-tx).
	TxDifficulty int
	// BlockTxs and BlockDifficulty shape the baseline chain.
	BlockTxs        int
	BlockDifficulty int
	// PayloadBytes sizes each data payload.
	PayloadBytes int
}

// DefaultThroughputConfig compares 8 devices × 25 transactions with
// difficulties high enough that hash work (not framework overhead)
// dominates — the regime the paper's challenge 3 is about.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Devices:         8,
		TxPerDevice:     25,
		TxDifficulty:    14,
		BlockTxs:        16,
		BlockDifficulty: 18,
		PayloadBytes:    128,
	}
}

// QuickThroughputConfig is a CI-friendly reduction.
func QuickThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Devices:         4,
		TxPerDevice:     10,
		TxDifficulty:    10,
		BlockTxs:        8,
		BlockDifficulty: 13,
		PayloadBytes:    64,
	}
}

// ThroughputRow is one system's measurement.
type ThroughputRow struct {
	System       string
	Transactions int
	Elapsed      time.Duration
	TPS          float64
	// MeanAccept and P95Accept measure submission→acceptance latency:
	// for the tangle a transaction is accepted as soon as its own PoW
	// and admission complete (asynchronous consensus); on the chain it
	// waits in the mempool until its block is mined (synchronous,
	// "validated one by one") — the paper's challenge-3 gap.
	MeanAccept time.Duration
	P95Accept  time.Duration
	// ConfirmedFrac is the fraction of submitted transactions that
	// reached the system's confirmation criterion by the end of the
	// run (tangle: cumulative weight; chain: block inclusion).
	ConfirmedFrac float64
}

// ThroughputResult is the comparison.
type ThroughputResult struct {
	Config ThroughputConfig
	Rows   []ThroughputRow
}

// RunThroughput measures both systems under the same device workload.
func RunThroughput(ctx context.Context, cfg ThroughputConfig) (*ThroughputResult, error) {
	if cfg.Devices < 1 || cfg.TxPerDevice < 1 {
		return nil, fmt.Errorf("throughput workload must be positive")
	}
	res := &ThroughputResult{Config: cfg}

	dagRow, err := runDAGThroughput(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("dag throughput: %w", err)
	}
	res.Rows = append(res.Rows, dagRow)

	chainRow, err := runChainThroughput(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("chain throughput: %w", err)
	}
	res.Rows = append(res.Rows, chainRow)
	return res, nil
}

func runDAGThroughput(ctx context.Context, cfg ThroughputConfig) (ThroughputRow, error) {
	run, err := runDevices(ctx, cfg.TxDifficulty, cfg.Devices, cfg.TxPerDevice, cfg.PayloadBytes)
	if err != nil {
		return ThroughputRow{}, err
	}
	total := cfg.Devices * cfg.TxPerDevice
	confirmed := float64(run.stats.Confirmed-2) / float64(total) // minus genesis
	if confirmed < 0 {
		confirmed = 0
	}
	return ThroughputRow{
		System:        "DAG tangle (async)",
		Transactions:  total,
		Elapsed:       run.elapsed,
		TPS:           float64(total) / run.elapsed.Seconds(),
		MeanAccept:    run.accept.Mean,
		P95Accept:     run.accept.P95,
		ConfirmedFrac: confirmed,
	}, nil
}

func runChainThroughput(ctx context.Context, cfg ThroughputConfig) (ThroughputRow, error) {
	chain, err := chainbc.New(chainbc.Config{
		Difficulty:    cfg.BlockDifficulty,
		MaxTxPerBlock: cfg.BlockTxs,
	}, nil)
	if err != nil {
		return ThroughputRow{}, err
	}

	// Pre-build the identical workload: signed data transactions.
	// Chain transactions reuse the tangle encoding; parents are unused
	// by the chain but must be non-zero to pass structural validation.
	keys := make([]*identity.KeyPair, cfg.Devices)
	for i := range keys {
		if keys[i], err = identity.Generate(); err != nil {
			return ThroughputRow{}, err
		}
	}
	parent := txn.PowDigest(txnSeedHash("chain-parent-1"), txnSeedHash("chain-parent-2"), 0)
	payload := make([]byte, cfg.PayloadBytes)
	total := cfg.Devices * cfg.TxPerDevice

	txs := make([]*txn.Transaction, 0, total)
	for d, key := range keys {
		for i := 0; i < cfg.TxPerDevice; i++ {
			t := &txn.Transaction{
				Trunk:     parent,
				Branch:    parent,
				Timestamp: time.Now(),
				Kind:      txn.KindData,
				Payload:   append([]byte(nil), payload...),
				Nonce:     uint64(d*cfg.TxPerDevice + i),
			}
			t.Sign(key)
			txs = append(txs, t)
		}
	}

	var accept metrics.Histogram
	start := time.Now()
	// Synchronous consensus: admit txs one by one into the mempool and
	// mine sequentially — a block must complete before the next batch.
	for _, t := range txs {
		if err := chain.SubmitTx(t); err != nil {
			return ThroughputRow{}, err
		}
	}
	mined := 0
	for chain.MempoolLen() > 0 {
		if err := ctx.Err(); err != nil {
			return ThroughputRow{}, err
		}
		block, err := chain.MineBlock(ctx)
		if err != nil {
			return ThroughputRow{}, err
		}
		mined += len(block.Txs)
		// Every transaction in this block waited in the mempool since
		// submission: its acceptance latency is the elapsed time to
		// the block that finally carried it.
		blockDone := time.Since(start)
		for range block.Txs {
			accept.Observe(blockDone)
		}
	}
	elapsed := time.Since(start)

	confirmed := 0
	for _, t := range txs {
		if chain.OnMainChain(t.ID()) {
			confirmed++
		}
	}
	sum := accept.Summarize()
	return ThroughputRow{
		System:        "chain blockchain (sync)",
		Transactions:  total,
		Elapsed:       elapsed,
		TPS:           float64(total) / elapsed.Seconds(),
		MeanAccept:    sum.Mean,
		P95Accept:     sum.P95,
		ConfirmedFrac: float64(confirmed) / float64(total),
	}, nil
}

func txnSeedHash(s string) (h [32]byte) {
	copy(h[:], s)
	return h
}

// Table builds the comparison.
func (r *ThroughputResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Throughput — DAG vs chain, %d devices × %d txs (tx difficulty %d, block difficulty %d)",
			r.Config.Devices, r.Config.TxPerDevice, r.Config.TxDifficulty, r.Config.BlockDifficulty),
		Header: []string{"system", "txs", "elapsed_s", "tps", "mean_accept_s", "p95_accept_s", "confirmed_frac"},
	}
	for _, row := range r.Rows {
		t.add(
			row.System,
			fmt.Sprintf("%d", row.Transactions),
			fsec(row.Elapsed),
			fmt.Sprintf("%.1f", row.TPS),
			fsec(row.MeanAccept),
			fsec(row.P95Accept),
			fmt.Sprintf("%.2f", row.ConfirmedFrac),
		)
	}
	return t
}
