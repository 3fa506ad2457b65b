package main

import (
	"encoding/json"
	"os"
)

// This file is the benchmark's contract: every workload and metric by
// name, unit, direction and — for end-to-end metrics — the share of the
// parent's median by which it may worsen. BENCHMARK.json at the root of
// the repository is this table as JSON (`-print-spec` writes it), and a
// test keeps the two equal.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlEdgeDurable    = "edge-durable"
	wlRelayFanout    = "relay-fanout"
	wlFullPath       = "full-path"
	wlRecoverCatchup = "recover-catchup"
)

var workloads = []workloadSpec{
	{wlEdgeDurable, "one journaling gateway, no peers: store group commit, node admission, tangle attach and identity verify do all the work; gossip and rpc do none"},
	{wlRelayFanout, "gateway + 3 relays over TCP with 5 ms links, no journals: broadcaster, gossip codec, relay batch verify and 4x attach do the work; store does none"},
	{wlFullPath, "devices over rpc to a journaling gateway and 2 journaling relays, adaptive credit policy, nproc sessions: every layer on, nothing queueing, so stages sum to the latency"},
	{wlRecoverCatchup, "10k-transaction journaled ledger; the gateway reboots and replays, a fresh relay syncs it, beside a 100 tx/s trickle: the same layers as bulk readers next to a writer"},
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"admit_p50_ms", "ms", lower, 0.25},
	{"confirm_p50_ms", "ms", lower, 0.15},
	{"goodput_tps", "tx/s", higher, 0.25},
	{"alloc_kb_per_tx", "KiB", lower, 0.10},
	{"heap_mb_end", "MiB", lower, 0.15},
}

// perLayer lists the single-layer metrics of the traced run. Layers are
// this repository's packages. A metric a workload does not exercise
// reads 0 there.
var perLayer = []metricSpec{
	// End-to-end quantities that cannot carry a bound across all four
	// workloads: the tail percentiles and the processor time are too
	// unsteady on a shared host, the others exist on some workloads only
	// (see README.md).
	{"admit_p95_ms", "ms", lower, 0},
	{"admit_p99_ms", "ms", lower, 0},
	{"confirm_p95_ms", "ms", lower, 0},
	{"confirm_p99_ms", "ms", lower, 0},
	{"cpu_ms_per_tx", "ms", lower, 0},
	{"replicate_p50_ms", "ms", lower, 0},
	{"replicate_p99_ms", "ms", lower, 0},
	{"recovery_s", "s", lower, 0},
	{"catchup_tps", "tx/s", higher, 0},
	{"slo_miss_frac", "fraction", lower, 0},
	{"failed_frac", "fraction", lower, 0},

	{"loadgen.late_p99_ms", "ms", lower, 0},
	{"loadgen.ops", "count", higher, 0},
	{"loadgen.inflight_max", "count", lower, 0},

	{"node.light.tip_validate_us", "us", lower, 0},
	{"node.light.submit_calls_per_tx", "1/tx", lower, 0},

	{"rpc.tips_us_p50", "us", lower, 0},
	{"rpc.get_tx_us_p50", "us", lower, 0},
	{"rpc.difficulty_us_p50", "us", lower, 0},
	{"rpc.submit_ms_p50", "ms", lower, 0},
	{"rpc.calls_per_tx", "1/tx", lower, 0},
	{"rpc.read_overhead_us", "us", lower, 0},

	{"pow.search_us_per_tx", "us", lower, 0},
	{"pow.attempts_per_tx", "1/tx", lower, 0},
	{"pow.verify_us", "us", lower, 0},

	{"identity.sign_us", "us", lower, 0},
	{"identity.verify_us", "us", lower, 0},
	{"identity.verify_batch_us_per_sig", "us", lower, 0},

	{"txn.encode_us", "us", lower, 0},
	{"txn.decode_us", "us", lower, 0},
	{"txn.id_us", "us", lower, 0},

	{"core.record_us", "us", lower, 0},
	{"core.difficulty_us", "us", lower, 0},

	{"authz.is_authorized_us", "us", lower, 0},
	{"authz.evidence_verdict_us", "us", lower, 0},

	{"tangle.attach_us", "us", lower, 0},
	{"tangle.select_tips_us", "us", lower, 0},
	{"tangle.get_us", "us", lower, 0},
	{"tangle.export_page_us", "us", lower, 0},
	{"tangle.restore_us", "us", lower, 0},
	{"tangle.walk_len_max", "count", lower, 0},
	{"tangle.tips_mean", "count", lower, 0},

	{"store.fsyncs_per_tx", "1/tx", lower, 0},
	{"store.bytes_per_tx", "B/tx", lower, 0},
	{"store.fsync_busy_frac", "fraction", lower, 0},
	{"store.write_busy_frac", "fraction", lower, 0},
	{"store.append_cpu_us", "us", lower, 0},
	{"store.replay_us_per_tx", "us", lower, 0},

	{"gossip.msgs_per_tx", "1/tx", lower, 0},
	{"gossip.bytes_per_tx", "B/tx", lower, 0},
	{"gossip.tx_per_msg", "tx/msg", higher, 0},
	{"gossip.request_ms_p50", "ms", lower, 0},
	{"gossip.encode_us_per_tx", "us", lower, 0},
	{"gossip.decode_us_per_tx", "us", lower, 0},
	{"gossip.send_failures", "count", lower, 0},

	{"node.submit_ms_p50", "ms", lower, 0},
	{"node.submit_ms_p99", "ms", lower, 0},
	{"node.submit_ms_p999", "ms", lower, 0},
	{"node.submit_ms_max", "ms", lower, 0},
	{"node.tips_us_p50", "us", lower, 0},
	{"node.get_tx_us_p50", "us", lower, 0},
	{"node.difficulty_us_p50", "us", lower, 0},
	{"node.admit_stage_us_mean", "us", lower, 0},
	{"node.attach_stage_us_mean", "us", lower, 0},
	{"node.broadcast_ms_mean", "ms", lower, 0},
	{"node.relay_handle_us_per_tx", "us", lower, 0},
	{"node.relay_batch_mean", "tx/msg", higher, 0},
	{"node.verify_cache_hits", "count", higher, 0},
	{"node.queue_wait_ms", "ms", lower, 0},
	{"node.rejected", "count", lower, 0},
	{"node.rate_limited", "count", lower, 0},
	{"node.journal_errors", "count", lower, 0},
	{"node.peer_drops", "count", lower, 0},
	{"node.orphan_syncs", "count", lower, 0},
	{"node.sync_pages", "count", lower, 0},
	{"node.replay_us_per_tx", "us", lower, 0},
	{"node.sync_page_ms", "ms", lower, 0},

	{"metrics.observe_ns", "ns", lower, 0},
	{"metrics.hist_samples_end", "count", lower, 0},

	{"go.gc_pause_ms_total", "ms", lower, 0},
	{"go.gc_cycles", "count", lower, 0},
	{"go.goroutines_max", "count", lower, 0},

	{"trace.overhead_frac", "fraction", lower, 0},
	{"trace.stage_sum_gap_frac", "fraction", lower, 0},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

// perLayerSpec is metricSpec without a bound: per-layer metrics have
// none.
type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerSpec{m.Name, m.Unit, m.Better})
	}
	return f
}

func printSpec() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(benchmarkSpec())
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
