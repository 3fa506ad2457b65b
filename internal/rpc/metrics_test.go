package rpc

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
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
