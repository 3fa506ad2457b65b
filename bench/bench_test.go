package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 10: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// The driver takes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestOutsideOutages(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	cycles := []recoveryCycle{{rebootAt: at(100), recovery: 50 * time.Millisecond}} // outage 100–150
	ops := []opRecord{
		{origin: at(10), admitted: at(20)},   // before
		{origin: at(90), admitted: at(100)},  // returned as the power went
		{origin: at(95), admitted: at(155)},  // in flight when the power went
		{origin: at(120), admitted: at(160)}, // due during the outage
		{origin: at(150), admitted: at(160)}, // due as the gateway came back
		{origin: at(200), admitted: at(210)}, // after
	}
	var kept []int
	for _, op := range outsideOutages(ops, cycles) {
		kept = append(kept, int(op.origin.Sub(t0)/time.Millisecond))
	}
	if want := []int{10, 90, 150, 200}; !reflect.DeepEqual(kept, want) {
		t.Errorf("readings kept: due at %v ms, want %v", kept, want)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{Name: "parent", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(30), Parent: 0},
		{Name: "b", Start: at(20), End: at(50), Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: at(90), End: at(120), Parent: 0}, // runs past the parent: clipped
		{Name: "leaf", Start: at(12), End: at(15), Parent: 1},
	}
	want := []time.Duration{50, 17, 30, 30, 3}
	for i, got := range selfTimes(spans) {
		if got != want[i]*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i]*time.Millisecond)
		}
	}
	var nilTracer *tracer
	if idx := nilTracer.add("x", at(0), at(1), -1, hashutil.Hash{}); idx != -1 || nilTracer.snapshot() != nil {
		t.Errorf("a nil tracer must record nothing")
	}
}

// fakeNet is a gossip.Network that records what reaches it.
type fakeNet struct {
	mu      sync.Mutex
	order   []uint64 // Offset of each request, in arrival order
	at      []time.Time
	handler gossip.Handler
	fail    error
}

func (f *fakeNet) Self() string    { return "self" }
func (f *fakeNet) Peers() []string { return []string{"peer"} }
func (f *fakeNet) Close() error    { return nil }
func (f *fakeNet) Broadcast(context.Context, gossip.Message) error {
	return f.fail
}
func (f *fakeNet) SetHandler(h gossip.Handler) { f.handler = h }
func (f *fakeNet) Request(_ context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	f.mu.Lock()
	f.order = append(f.order, msg.Offset)
	f.at = append(f.at, time.Now())
	f.mu.Unlock()
	return gossip.Message{Type: gossip.MsgSyncResponse, Offset: msg.Offset + 1}, f.fail
}

func TestLinkDelayIsFIFOAndExact(t *testing.T) {
	const delay = 4 * time.Millisecond
	const n = 40
	inner := &fakeNet{}
	var trace atomic.Pointer[tracer]
	link := newLinkNet(inner, delay, &peerStats{}, &trace)

	sent := make([]time.Time, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sent[i] = time.Now()
		go func(i int) {
			defer wg.Done()
			reply, err := link.Request(context.Background(), "peer", gossip.Message{Type: gossip.MsgSyncRequest, Offset: uint64(i)})
			if err != nil || reply.Offset != uint64(i)+1 {
				t.Errorf("request %d: reply %+v, err %v", i, reply, err)
			}
		}(i)
		// Messages enter the link in order; the link must keep it even
		// though every sender sleeps on its own timer.
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	if len(inner.order) != n {
		t.Fatalf("%d of %d requests arrived", len(inner.order), n)
	}
	for i, off := range inner.order {
		if off != uint64(i) {
			t.Fatalf("arrival order %v is not first in, first out", inner.order)
		}
		oneWay := inner.at[i].Sub(sent[off])
		if oneWay < delay {
			t.Errorf("message %d arrived after %v, before the %v link delay", off, oneWay, delay)
		}
		if oneWay > delay+10*time.Millisecond {
			t.Errorf("message %d arrived after %v: more than the %v link delay", off, oneWay, delay)
		}
	}
	// The reply travels the link too.
	start := time.Now()
	if _, err := link.Request(context.Background(), "peer", gossip.Message{Type: gossip.MsgSyncRequest}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*delay {
		t.Errorf("round trip %v shorter than two link delays", rtt)
	}
}

func TestNetworkSeamIsTransparent(t *testing.T) {
	boom := errors.New("boom")
	inner := &fakeNet{fail: boom}
	var trace atomic.Pointer[tracer]
	trace.Store(&tracer{})
	stats := &peerStats{observeRecv: true, contains: func(hashutil.Hash) bool { return true }}
	link := newLinkNet(inner, 0, stats, &trace)
	if link.Self() != "self" || len(link.Peers()) != 1 {
		t.Errorf("Self/Peers not forwarded")
	}
	if _, err := link.Request(context.Background(), "peer", gossip.Message{Type: gossip.MsgTransaction, TxData: [][]byte{{1}}}); !errors.Is(err, boom) {
		t.Errorf("Request error = %v, want the transport's", err)
	}
	if err := link.Broadcast(context.Background(), gossip.Message{}); !errors.Is(err, boom) {
		t.Errorf("Broadcast error = %v, want the transport's", err)
	}

	// Inbound: the node's handler sees the message unchanged and its
	// reply and error reach the transport unchanged.
	var gotFrom string
	var gotMsg gossip.Message
	want := &gossip.Message{Type: gossip.MsgSyncResponse, Total: 7}
	link.SetHandler(gossip.HandlerFunc(func(from string, msg gossip.Message) (*gossip.Message, error) {
		gotFrom, gotMsg = from, msg
		return want, boom
	}))
	raw := []byte("a transaction")
	for _, msg := range []gossip.Message{
		{Type: gossip.MsgTransaction, TxData: [][]byte{raw}, Scoped: true, Shard: 3},
		{Type: gossip.MsgSyncRequest, Offset: 9},
	} {
		reply, err := inner.handler.HandleGossip("them", msg)
		if reply != want || !errors.Is(err, boom) {
			t.Errorf("%v: reply %v err %v not the handler's own", msg.Type, reply, err)
		}
		if gotFrom != "them" || gotMsg.Type != msg.Type || gotMsg.Offset != msg.Offset || gotMsg.Shard != msg.Shard || len(gotMsg.TxData) != len(msg.TxData) {
			t.Errorf("%v: handler saw %q %+v", msg.Type, gotFrom, gotMsg)
		}
	}
	if len(stats.arrivals) != 1 || stats.arrivals[0].id != hashutil.Sum(raw) {
		t.Errorf("arrival of the handled transaction not observed: %+v", stats.arrivals)
	}
	if stats.txBatches != 1 || stats.txHandled != 1 || stats.txMessages != 1 {
		t.Errorf("counts: %d batches of %d handled, %d sent", stats.txBatches, stats.txHandled, stats.txMessages)
	}
}

// fakeGateway answers with fixed values and counts calls.
type fakeGateway struct {
	calls int
	err   error
}

func (f *fakeGateway) TipsForApproval() (hashutil.Hash, hashutil.Hash, error) {
	f.calls++
	return hashutil.Hash{1}, hashutil.Hash{2}, f.err
}
func (f *fakeGateway) DifficultyFor(identity.Address) int { f.calls++; return 11 }
func (f *fakeGateway) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	f.calls++
	return &txn.Transaction{Trunk: id}, f.err
}
func (f *fakeGateway) Submit(_ context.Context, t *txn.Transaction) (tangle.Info, error) {
	f.calls++
	return tangle.Info{ID: t.Trunk}, f.err
}
func (f *fakeGateway) TransactionsByKind(txn.Kind, int) ([]*txn.Transaction, error) {
	f.calls++
	return []*txn.Transaction{{}}, f.err
}

func TestGatewaySeamIsTransparent(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, failing := range []error{nil, errors.New("refused")} {
			inner := &fakeGateway{err: failing}
			target := &gatewayTarget{}
			target.set(inner)
			if traced {
				target.trace.Store(&tracer{})
			}
			seam := &deviceGateway{target: target}
			var gw node.Gateway = seam

			trunk, branch, err := gw.TipsForApproval()
			if trunk != (hashutil.Hash{1}) || branch != (hashutil.Hash{2}) || err != failing {
				t.Errorf("tips: %v %v %v", trunk, branch, err)
			}
			if d := gw.DifficultyFor(identity.Address{}); d != 11 {
				t.Errorf("difficulty %d", d)
			}
			got, err := gw.GetTransaction(hashutil.Hash{9})
			if got.Trunk != (hashutil.Hash{9}) || err != failing {
				t.Errorf("get: %v %v", got, err)
			}
			info, err := gw.Submit(context.Background(), &txn.Transaction{Trunk: hashutil.Hash{7}})
			if info.ID != (hashutil.Hash{7}) || err != failing {
				t.Errorf("submit: %v %v", info, err)
			}
			list, err := gw.TransactionsByKind(txn.KindData, 0)
			if len(list) != 1 || err != failing {
				t.Errorf("by kind: %v %v", list, err)
			}
			if inner.calls != 5 {
				t.Errorf("gateway saw %d calls, want 5", inner.calls)
			}
			if wantCalls := map[bool]int{false: 0, true: 4}[traced]; len(seam.calls) != wantCalls {
				t.Errorf("traced=%v: %d calls recorded, want %d", traced, len(seam.calls), wantCalls)
			}
			if wantServed := map[bool]int64{true: 1, false: 0}[failing == nil]; target.served.Load() != wantServed {
				t.Errorf("served = %d, want %d", target.served.Load(), wantServed)
			}
		}
	}
}

func TestDiskSeamIsTransparent(t *testing.T) {
	var trace atomic.Pointer[tracer]
	trace.Store(&tracer{})
	stats := &diskStats{}
	plain, seamed := newModelDisk(), newModelDisk()
	script := func(fs chaos.FS) []byte {
		f, err := fs.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, f, "hello world")
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(6, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, f, "there!")
		if err := f.Truncate(11); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		all, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return all
	}
	a := script(plain)
	b := script(&tracedFS{inner: seamed, stats: stats, trace: &trace})
	if !bytes.Equal(a, b) || string(a) != "hello there" {
		t.Errorf("through the seam %q, without %q", b, a)
	}
	if !bytes.Equal(plain.files["f"].durable, seamed.files["f"].durable) {
		t.Errorf("durable content differs: %q vs %q", plain.files["f"].durable, seamed.files["f"].durable)
	}
	if stats.writes.Load() != 2 || stats.syncs.Load() != 1 || stats.writeBytes.Load() != 17 {
		t.Errorf("seam counted %d writes, %d bytes, %d syncs", stats.writes.Load(), stats.writeBytes.Load(), stats.syncs.Load())
	}
	if _, err := (&tracedFS{inner: seamed, stats: stats, trace: &trace}).OpenFile("missing", os.O_RDWR, 0); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("open of a missing file: %v", err)
	}
}

func mustWrite(t *testing.T, w io.Writer, s string) {
	t.Helper()
	if n, err := w.Write([]byte(s)); n != len(s) || err != nil {
		t.Fatalf("write %q: %d, %v", s, n, err)
	}
}

func TestModelDiskKeepsOnlySyncedData(t *testing.T) {
	d := newModelDisk()
	d.setSyncDelay(3 * time.Millisecond)
	f, err := d.OpenFile("journal", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, "durable.")
	start := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 3*time.Millisecond {
		t.Errorf("sync took %v, less than the modelled delay", took)
	}
	mustWrite(t, f, "lost")

	// A second machine finds what was synced; so does this one after a
	// power cycle, and the old handle is dead.
	for name, disk := range map[string]*modelDisk{"clone": d.clone(), "rebooted": d} {
		if name == "rebooted" {
			d.reboot()
		}
		g, err := disk.OpenFile("journal", os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(g)
		if string(got) != "durable." {
			t.Errorf("%s disk holds %q", name, got)
		}
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, errStaleHandle) {
		t.Errorf("write through a handle from before the reboot: %v", err)
	}
	if err := d.Rename("journal", "j2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.OpenFile("journal", os.O_RDWR, 0); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("renamed file still there: %v", err)
	}
	if err := d.Remove("j2"); err != nil {
		t.Fatal(err)
	}
}

func TestJudge(t *testing.T) {
	steady := func(m float64) side { return newSide([]float64{m * 0.99, m, m, m, m * 1.01}) }
	noisy := newSide([]float64{50, 80, 100, 120, 150})
	for _, tc := range []struct {
		a, b   side
		better string
		bound  float64
		want   string
	}{
		{steady(100), steady(103), lower, 0.05, verdictSame},
		{steady(100), steady(110), lower, 0.05, verdictWorse},
		{steady(100), steady(90), lower, 0.05, verdictBetter},
		{steady(100), steady(110), higher, 0.05, verdictBetter},
		{steady(100), steady(90), higher, 0.05, verdictWorse},
		{noisy, steady(100), lower, 0.05, verdictUnresolved},
	} {
		if _, got := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("judge(%v → %v, %s, %v) = %s, want %s", tc.a.median, tc.b.median, tc.better, tc.bound, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is spec.go as JSON, and both stay inside the limits the
// driver refuses a benchmark for.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(benchmarkSpec())
	_ = json.Unmarshal(want, &fromCode)
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(fromCode)
	if !bytes.Equal(a, b) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}

	spec := benchmarkSpec()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of limits", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v out of limits", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// Every workload, traced and not, at a fraction of a second: every code
// path runs, every metric of the list is reported, the gate passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if !traced && w.Name != wlEdgeDurable {
				continue // the traced run covers the untraced path too
			}
			cfg := runConfig{workload: w.Name, seed: 7, seconds: 0.6, trace: traced, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(res.void) > 0 {
				t.Errorf("%s traced=%v is void: %v", w.Name, traced, res.void)
			}
			if res.attempted == 0 || res.failed > 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.Name, traced, res.attempted, res.failed)
			}
			list := endToEnd
			if traced {
				list = append(append([]metricSpec(nil), endToEnd...), perLayer...)
			}
			for _, m := range list {
				got, ok := res.metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v", w.Name, traced, m.Name, got)
				}
			}
			for _, m := range endToEnd {
				if res.metrics[m.Name].Value <= 0 {
					t.Errorf("%s traced=%v: end-to-end metric %s is %v", w.Name, traced, m.Name, res.metrics[m.Name].Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
				// Each layer is idle in its bypass workload.
				if w.Name == wlEdgeDurable && res.metrics["gossip.msgs_per_tx"].Value != 0 {
					t.Errorf("edge-durable gossips: %v msgs/tx", res.metrics["gossip.msgs_per_tx"].Value)
				}
				if w.Name == wlRelayFanout && res.metrics["store.fsyncs_per_tx"].Value != 0 {
					t.Errorf("relay-fanout syncs: %v fsyncs/tx", res.metrics["store.fsyncs_per_tx"].Value)
				}
			}
		}
	}
}
