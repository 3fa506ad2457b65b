package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/b-iot/biot/internal/gossip"
)

// GossipBenchConfig parameterizes the transport fan-out benchmark: at
// each peer count it measures mean broadcast latency on real loopback
// sockets for the persistent multiplexed transport (pooled connections,
// concurrent fan-out), whose broadcast cost is the MAX of warm per-peer
// exchanges and so should stay near-flat as the peer count grows. The
// committed BENCH_gossip.json also carries the retired dial-per-exchange
// transport's columns; they were last regenerable at commit 9ef8962.
type GossipBenchConfig struct {
	// PeerCounts lists the gossip fan-out degrees to measure.
	PeerCounts []int
	// Broadcasts is the number of timed broadcasts per transport at each
	// peer count.
	Broadcasts int
	// TxPerBatch and TxBytes shape the datagram: each broadcast carries
	// TxPerBatch synthetic transaction payloads of TxBytes each.
	TxPerBatch int
	TxBytes    int
	// AckDelay models the receiver's work before it acks a batch —
	// signature + PoW verification of TxPerBatch transactions (about
	// 80 µs per ECDSA verify alone) — which loopback sockets otherwise
	// hide. It is the latency the concurrent fan-out overlaps across
	// peers.
	AckDelay time.Duration
}

// DefaultGossipBenchConfig sweeps to 8 peers, the scale the acceptance
// snapshot (BENCH_gossip.json) is pinned at.
func DefaultGossipBenchConfig() GossipBenchConfig {
	return GossipBenchConfig{
		PeerCounts: []int{2, 4, 8},
		Broadcasts: 300,
		TxPerBatch: 16,
		TxBytes:    160,
		AckDelay:   500 * time.Microsecond,
	}
}

// QuickGossipBenchConfig is a CI-friendly reduction.
func QuickGossipBenchConfig() GossipBenchConfig {
	return GossipBenchConfig{PeerCounts: []int{2, 8}, Broadcasts: 60, TxPerBatch: 8, TxBytes: 120, AckDelay: 200 * time.Microsecond}
}

// GossipBenchRow is one peer count's measurement.
type GossipBenchRow struct {
	Peers int `json:"peers"`
	// PooledNs is the mean wall-clock time for one Broadcast reaching
	// every peer.
	PooledNs float64 `json:"pooled_ns"`
	// PooledDials counts TCP connections established during the timed
	// broadcasts; Reuses counts exchanges served over an already-warm
	// connection.
	PooledDials int64 `json:"pooled_dials"`
	Reuses      int64 `json:"reuses"`
}

// GossipBenchResult is the fan-out scaling curve.
type GossipBenchResult struct {
	Config GossipBenchConfig `json:"config"`
	Rows   []GossipBenchRow  `json:"rows"`
}

// RunGossipBench executes the sweep on loopback sockets.
func RunGossipBench(ctx context.Context, cfg GossipBenchConfig) (*GossipBenchResult, error) {
	if len(cfg.PeerCounts) == 0 || cfg.Broadcasts < 1 || cfg.TxPerBatch < 1 {
		return nil, fmt.Errorf("gossip bench workload too small")
	}
	res := &GossipBenchResult{Config: cfg}
	for _, peers := range cfg.PeerCounts {
		row, err := runGossipBenchPeers(ctx, cfg, peers)
		if err != nil {
			return nil, fmt.Errorf("peers=%d: %w", peers, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runGossipBenchPeers(ctx context.Context, cfg GossipBenchConfig, peers int) (GossipBenchRow, error) {
	pooledNs, pooledDials, reuses, err := timeGossipBroadcasts(ctx, cfg, peers, benchGossipMessage(cfg))
	if err != nil {
		return GossipBenchRow{}, err
	}
	return GossipBenchRow{Peers: peers, PooledNs: pooledNs, PooledDials: pooledDials, Reuses: reuses}, nil
}

// benchGossipMessage builds one deterministic transaction batch.
func benchGossipMessage(cfg GossipBenchConfig) gossip.Message {
	batch := make([][]byte, cfg.TxPerBatch)
	for i := range batch {
		tx := make([]byte, cfg.TxBytes)
		for j := range tx {
			tx[j] = byte(i + j)
		}
		batch[i] = tx
	}
	return gossip.Message{Type: gossip.MsgTransaction, TxData: batch}
}

// timeGossipBroadcasts stands up one sender and `peers` receivers on
// loopback, runs a short warm-up, then times cfg.Broadcasts broadcasts.
func timeGossipBroadcasts(ctx context.Context, cfg GossipBenchConfig, peers int, msg gossip.Message) (meanNs float64, dials, reuses int64, err error) {
	ack := gossip.HandlerFunc(func(string, gossip.Message) (*gossip.Message, error) {
		if cfg.AckDelay > 0 {
			time.Sleep(cfg.AckDelay)
		}
		return &gossip.Message{}, nil
	})
	sender, err := gossip.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer sender.Close()
	sender.SetHandler(ack)

	receivers := make([]*gossip.TCPNetwork, 0, peers)
	defer func() {
		for _, r := range receivers {
			_ = r.Close()
		}
	}()
	for i := 0; i < peers; i++ {
		r, rerr := gossip.ListenTCP("127.0.0.1:0")
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		r.SetHandler(ack)
		receivers = append(receivers, r)
		sender.AddPeer(r.Self())
	}

	// Warm-up establishes the pooled connections (first-dial costs)
	// outside the timed window.
	for i := 0; i < 3; i++ {
		if err := sender.Broadcast(ctx, msg); err != nil {
			return 0, 0, 0, err
		}
	}
	dialsBefore := sender.Metrics().Dials.Value()
	reusesBefore := sender.Metrics().Reuses.Value()
	start := time.Now()
	for i := 0; i < cfg.Broadcasts; i++ {
		if err := sender.Broadcast(ctx, msg); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(cfg.Broadcasts),
		sender.Metrics().Dials.Value() - dialsBefore,
		sender.Metrics().Reuses.Value() - reusesBefore,
		nil
}

// Render writes the fan-out scaling curve as an aligned table.
func (r *GossipBenchResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Gossip transport fan-out — %d broadcasts of %d×%dB per row, loopback TCP, %v receiver ack delay\n",
		r.Config.Broadcasts, r.Config.TxPerBatch, r.Config.TxBytes, r.Config.AckDelay); err != nil {
		return err
	}
	return r.table().render(w)
}

func (r *GossipBenchResult) table() *table {
	t := &table{header: []string{"peers", "pooled_ns", "pooled_dials", "reuses"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Peers),
			fmt.Sprintf("%.0f", row.PooledNs),
			fmt.Sprintf("%d", row.PooledDials),
			fmt.Sprintf("%d", row.Reuses))
	}
	return t
}

// CSV writes the curve as CSV.
func (r *GossipBenchResult) CSV(w io.Writer) error { return r.table().csv(w) }

// JSON writes the curve as a machine-readable snapshot
// (BENCH_gossip.json in the Makefile's bench target).
func (r *GossipBenchResult) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
