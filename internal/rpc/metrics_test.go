package rpc

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
)

// scrapeMetrics GETs /metrics and parses the Prometheus text format as a
// scraper would, failing the test on anything one would refuse: a sample
// whose family has no TYPE, a value that is not a number, a histogram
// whose buckets are not cumulative or do not end at +Inf = _count.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: %s, Content-Type %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	types := map[string]string{}
	samples := map[string]float64{}
	lastBucket := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(name)
			if len(f) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			types[f[0]] = f[1]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		name := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		family, _, _ := strings.Cut(name, "{")
		if _, ok := types[family]; !ok {
			base, suffix := family[:strings.LastIndexByte(family, '_')], family[strings.LastIndexByte(family, '_'):]
			if types[base] != "histogram" || (suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
				t.Fatalf("sample %q has no TYPE", line)
			}
			switch suffix {
			case "_bucket":
				if v < lastBucket[base] {
					t.Fatalf("%s: bucket %q below the one before (%v)", base, line, lastBucket[base])
				}
				lastBucket[base] = v
			case "_count":
				if samples[base+`_bucket{le="+Inf"}`] != v {
					t.Fatalf("%s: +Inf bucket %v != _count %v", base, samples[base+`_bucket{le="+Inf"}`], v)
				}
				delete(lastBucket, base)
			}
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsEndpoint: /metrics carries the node's counters and pipeline
// histograms in a format a scraper accepts, and one submitted reading
// moves the admit stage's _count by exactly one and Accepted with it.
func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	const (
		admitCount = "biot_pipeline_admit_latency_seconds_count"
		accepted   = "biot_node_accepted_total"
	)
	before := scrapeMetrics(t, f.srv.URL)
	for _, name := range []string{admitCount, accepted, "biot_pipeline_in_flight", "biot_pipeline_verify_cache_hits_total"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
	if _, err := dev.PostReading(context.Background(), []byte("counted")); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t, f.srv.URL)
	if got := after[admitCount] - before[admitCount]; got != 1 {
		t.Errorf("%s moved by %v for one reading, want 1", admitCount, got)
	}
	if got := after[accepted] - before[accepted]; got != 1 {
		t.Errorf("%s moved by %v for one reading, want 1", accepted, got)
	}
}

// TestMetricsServeTheGossipTransport: a node whose network is a TCP
// gossip transport serves that transport's surface beside its own — dials,
// bytes, the exchange round-trip histogram — and one exchange with a peer
// shows in it; a node on any other network lists none of it.
func TestMetricsServeTheGossipTransport(t *testing.T) {
	const (
		dials = "biot_gossip_dials_total"
		rtt   = "biot_gossip_exchange_rtt_seconds_count"
	)
	if _, ok := scrapeMetrics(t, newFixture(t).srv.URL)[dials]; ok {
		t.Errorf("a node without a TCP transport lists %s", dials)
	}

	listen := func() *gossip.TCPNetwork {
		n, err := gossip.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	tcp, peer := listen(), listen()
	peer.SetHandler(gossip.HandlerFunc(func(string, gossip.Message) (*gossip.Message, error) {
		return &gossip.Message{}, nil
	}))
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        key,
		Role:       identity.RoleManager,
		ManagerPub: key.Public(),
		Credit:     core.DefaultParams(),
		Network:    tcp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = full.Close() })
	srv := httptest.NewServer(NewServer(full).Handler())
	t.Cleanup(srv.Close)

	before := scrapeMetrics(t, srv.URL)
	for _, name := range []string{dials, rtt, "biot_gossip_bytes_out_total", "biot_gossip_in_flight", "biot_gossip_pings_total"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
	if _, err := tcp.Request(context.Background(), peer.Self(), gossip.Message{Type: gossip.MsgTransaction}); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t, srv.URL)
	if got := after[dials] - before[dials]; got != 1 {
		t.Errorf("%s moved by %v for the first exchange with a peer, want 1", dials, got)
	}
	if got := after[rtt] - before[rtt]; got != 1 {
		t.Errorf("%s moved by %v for one exchange, want 1", rtt, got)
	}
}

// TestMetricsServeTheLedgerAndMemory: the ledger's gauges and the node's
// memory footprint are on /metrics — one series of each parsed, the
// ledger's moving with an attach — and no value is served twice: the
// ledger's sizes are biot_tangle_* gauges and the backbone counts
// biot_node_*_total counters, never biot_memory_* gauges as well.
func TestMetricsServeTheLedgerAndMemory(t *testing.T) {
	const (
		resident = "biot_tangle_resident_vertices"
		lag      = "biot_memory_reconcile_lag_ms"
	)
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	before := scrapeMetrics(t, f.srv.URL)
	for _, name := range []string{resident, lag, "biot_tangle_walk_fallbacks_total", "biot_memory_heap_inuse",
		"biot_memory_journal_bytes", "biot_memory_evidence_versions", "biot_node_backbone_sync_pages_total"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
	for _, name := range []string{"biot_memory_resident_vertices", "biot_memory_boundary_roots", "biot_memory_snapshotted_ids",
		"biot_memory_backbone_sync_pages", "biot_memory_credit_txs_merged", "biot_memory_credit_events_merged"} {
		if _, ok := before[name]; ok {
			t.Errorf("/metrics serves %s, a value another series carries", name)
		}
	}
	if before[resident] != float64(f.full.Tangle().Size()) {
		t.Errorf("%s = %v, the ledger holds %d", resident, before[resident], f.full.Tangle().Size())
	}
	if before[lag] != -1 {
		t.Errorf("%s = %v with no backbone, want -1", lag, before[lag])
	}
	if _, err := dev.PostReading(context.Background(), []byte("r")); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t, f.srv.URL)
	if got := after[resident] - before[resident]; got != 1 {
		t.Errorf("%s moved by %v for one attach, want 1", resident, got)
	}
}

// servedSeries is every family /metrics serves for a journaling gateway
// on a TCP transport, sorted, as its TYPE line names it.
const servedSeries = `
biot_gossip_bytes_in_total counter
biot_gossip_bytes_out_total counter
biot_gossip_dial_failures_total counter
biot_gossip_dials_total counter
biot_gossip_exchange_rtt_seconds histogram
biot_gossip_in_flight gauge
biot_gossip_pings_total counter
biot_gossip_reconnects_total counter
biot_gossip_reuses_total counter
biot_memory_cold_index_bytes gauge
biot_memory_evidence_versions gauge
biot_memory_heap_inuse gauge
biot_memory_journal_bytes gauge
biot_memory_quarantine_len gauge
biot_memory_reconcile_lag_ms gauge
biot_node_accepted_total counter
biot_node_backbone_sync_pages_total counter
biot_node_credit_events_merged_total counter
biot_node_credit_txs_merged_total counter
biot_node_gossip_in_total counter
biot_node_journal_errors_total counter
biot_node_quality_violations_total counter
biot_node_quarantine_drops_total counter
biot_node_quarantine_repairs_total counter
biot_node_quarantined_total counter
biot_node_rate_limited_total counter
biot_node_rejected_total counter
biot_node_stale_auth_rejects_total counter
biot_node_unauthorized_total counter
biot_pipeline_admit_latency_seconds histogram
biot_pipeline_attach_latency_seconds histogram
biot_pipeline_batch_fallbacks_total counter
biot_pipeline_batch_verified_total counter
biot_pipeline_batch_verifies_total counter
biot_pipeline_batches_sent_total counter
biot_pipeline_broadcast_latency_seconds histogram
biot_pipeline_in_flight gauge
biot_pipeline_journal_latency_seconds histogram
biot_pipeline_orphan_sync_attached_total counter
biot_pipeline_orphan_syncs_total counter
biot_pipeline_peer_drops_total counter
biot_pipeline_send_failures_total counter
biot_pipeline_sync_pages_total counter
biot_pipeline_tx_broadcast_total counter
biot_pipeline_verify_busy gauge
biot_pipeline_verify_cache_hits_total counter
biot_pipeline_verify_latency_seconds histogram
biot_pipeline_verify_peak gauge
biot_pipeline_window_stalls_total counter
biot_tangle_anchor_count gauge
biot_tangle_anchor_height gauge
biot_tangle_boundary_roots gauge
biot_tangle_cold_errors_total counter
biot_tangle_cold_total gauge
biot_tangle_genesis_walks_total counter
biot_tangle_resident_vertices gauge
biot_tangle_walk_fallbacks_total counter
biot_tangle_walk_length gauge
biot_tangle_walk_length_max gauge
`

// TestMetricsServeEverySeries pins the whole page of a journaling gateway
// on a TCP transport: its TYPE lines, sorted, are servedSeries, and its
// sample names are exactly theirs — a counter's or gauge's own name, a
// histogram's _bucket, _sum and _count — so no series is renamed, dropped
// or added unnoticed.
func TestMetricsServeEverySeries(t *testing.T) {
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := gossip.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	full, err := node.NewFull(node.FullConfig{
		Key:        key,
		Role:       identity.RoleGateway,
		ManagerPub: managerKey.Public(),
		Credit:     core.DefaultParams(),
		Network:    tcp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = full.Close() })
	if _, err := full.EnablePersistence(filepath.Join(t.TempDir(), "journal")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(full).Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	samples := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if typ, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			types = append(types, typ)
			continue
		}
		name, _, _ := strings.Cut(sc.Text(), " ")
		name, _, _ = strings.Cut(name, "{")
		samples[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(types)
	if got, want := strings.Join(types, "\n"), strings.TrimSpace(servedSeries); got != want {
		t.Fatalf("TYPE lines:\n%s\nwant:\n%s", got, want)
	}
	want := map[string]bool{}
	for _, typ := range types {
		name, kind, _ := strings.Cut(typ, " ")
		if kind != "histogram" {
			want[name] = true
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			want[name+suffix] = true
		}
	}
	for name := range samples {
		if !want[name] {
			t.Errorf("/metrics serves %s, which no TYPE line names", name)
		}
	}
	for name := range want {
		if !samples[name] {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// TestReconcileLagNeedsAnAnsweringBackbone: reconcile_lag_ms stays -1 —
// the alerting condition — after a Reconcile that reconciled nothing
// across a backbone: on a gateway with only a regional network, and on
// one whose single backbone peer refuses every request, until that peer
// is a gateway that answers.
func TestReconcileLagNeedsAnAnsweringBackbone(t *testing.T) {
	const lag = "biot_memory_reconcile_lag_ms"
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tune func(*node.FullConfig, gossip.Network)
	}{
		{"regional-only", func(cfg *node.FullConfig, net gossip.Network) { cfg.Network = net }},
		{"refusing-backbone-peer", func(cfg *node.FullConfig, net gossip.Network) { cfg.Backbone = net }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The gateway's one peer joins the bus without a handler, so
			// every request to it fails.
			bus := gossip.NewBus()
			t.Cleanup(func() { _ = bus.Close() })
			net, err := bus.Join("gateway")
			if err != nil {
				t.Fatal(err)
			}
			refuser, err := bus.Join("refuser")
			if err != nil {
				t.Fatal(err)
			}
			key, err := identity.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfg := node.FullConfig{Key: key, Role: identity.RoleGateway, ManagerPub: managerKey.Public(), Credit: core.DefaultParams()}
			tc.tune(&cfg, net)
			full, err := node.NewFull(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = full.Close() })
			srv := httptest.NewServer(NewServer(full).Handler())
			t.Cleanup(srv.Close)

			full.Reconcile(context.Background())
			if got, ok := full.ReconcileLag(); ok {
				t.Errorf("ReconcileLag = %v, ok after a round no backbone peer answered", got)
			}
			if got := scrapeMetrics(t, srv.URL)[lag]; got != -1 {
				t.Errorf("%s = %v, want -1", lag, got)
			}
			if cfg.Backbone == nil {
				return
			}
			peerKey, err := identity.Generate()
			if err != nil {
				t.Fatal(err)
			}
			peer, err := node.NewFull(node.FullConfig{Key: peerKey, Role: identity.RoleGateway, ManagerPub: managerKey.Public(),
				Credit: core.DefaultParams(), Backbone: refuser})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = peer.Close() })
			full.Reconcile(context.Background())
			if _, ok := full.ReconcileLag(); !ok {
				t.Error("no ReconcileLag after a round the backbone peer answered")
			}
			if got := scrapeMetrics(t, srv.URL)[lag]; got < 0 {
				t.Errorf("%s = %v after a round the backbone peer answered", lag, got)
			}
		})
	}
}
