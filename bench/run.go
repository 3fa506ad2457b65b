package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
)

// Committed rates and session counts; never tuned at run time. They are
// light on purpose — the processor is mostly idle and the modelled flush
// and link delays decide the latencies — because the host's speed is not
// constant (README.md: calibration record, steadiness).
const (
	loadOpenRate    = 400.0                 // tx/s offered to edge-durable and relay-fanout
	closedSessions  = 8                     // closed-loop device sessions; full-path runs nproc
	trickleRate     = 100.0                 // tx/s beside recovery and catch-up
	preloadLedger   = 10000                 // transactions journaled before recover-catchup measures
	setupRepeats    = 3                     // set-ups per run; setup_s is their median
	warmupDuration  = time.Second           // closed-loop warm-up that ends every set-up
	confirmDrain    = 8 * time.Second       // how long to wait for the last confirmations
	cycleEvery      = 3 * time.Second       // recover-catchup: one power cut per this long
	edgeAdmitLimit  = 30 * time.Millisecond // open-loop readings slower than this miss (slo_miss_frac)
	fanoutReplLimit = 60 * time.Millisecond
	latenessLimit   = 20 * time.Millisecond // loadgen.late_p99_ms above this is warned of
	failedFracLimit = 0.002
	stageGapLimit   = 0.05 // trace.stage_sum_gap_frac above this is warned of
	replaySample    = 4000 // transactions the single-threaded layer replay uses
)

// runConfig is one invocation's flags.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // tiny phases, no bounds, no sample-count gate
	outDir   string
}

// plan is a workload's shape for a given run length.
type plan struct {
	topo        topology
	sessions    int           // closed-loop sessions
	openRate    float64       // 0 = no open-loop phase
	openFor     time.Duration // open-loop phase
	closedFor   time.Duration // closed-loop phase
	untracedFor time.Duration // traced runs: slice of the main phase run before the tracer is switched on
	// An open-loop reading misses its limit when admission (or, where
	// set, attachment on every relay) takes longer; 0 = no limit.
	admitLimit     time.Duration
	replicateLimit time.Duration
	preload        int
	recoverFor     time.Duration // recover-catchup: trickle and cycles
	waitReplicas   bool
	warmup         time.Duration // closed-loop warm-up, the last step of a set-up
	warmSessions   int
	cycleEvery     time.Duration // recover-catchup: one recovery cycle per this long
	inFlight       int           // open-loop bound on readings in flight
}

func planFor(cfg runConfig) (plan, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	var p plan
	switch cfg.workload {
	case wlEdgeDurable:
		p = plan{topo: topology{journalGateway: true}, sessions: closedSessions, openRate: loadOpenRate, admitLimit: edgeAdmitLimit}
	case wlRelayFanout:
		p = plan{topo: topology{relays: 3}, sessions: closedSessions, openRate: loadOpenRate, waitReplicas: true, replicateLimit: fanoutReplLimit}
	case wlFullPath:
		p = plan{topo: topology{relays: 2, journalGateway: true, journalRelays: true, viaRPC: true, adaptive: true},
			sessions: runtime.GOMAXPROCS(0)}
	case wlRecoverCatchup:
		// One warm-up session, like the preload: a journal written by
		// concurrent sessions replays slowly (README.md, probe findings).
		p = plan{topo: topology{journalGateway: true, listen: true}, sessions: closedSessions, openRate: trickleRate, preload: preloadLedger,
			recoverFor: total * 3 / 4, warmSessions: 1}
		if cfg.smoke {
			p.preload = 300
		}
	default:
		return plan{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	switch {
	case p.recoverFor > 0:
		p.closedFor = total - p.recoverFor
	case p.openRate > 0:
		p.openFor = total * 6 / 10
		p.closedFor = total - p.openFor
	default:
		p.closedFor = total
	}
	if cfg.trace {
		// The untraced slice is what trace.overhead_frac compares with.
		p.untracedFor = total / 5
	}
	p.warmup, p.cycleEvery, p.inFlight = warmupDuration, cycleEvery, maxInFlight
	if p.warmSessions == 0 {
		p.warmSessions = p.sessions
	}
	if p.recoverFor > 0 {
		// Readings due during an outage park until the gateway is back;
		// the bound must hold a whole outage of them or the generator
		// itself would stall.
		p.inFlight = 4 * maxInFlight
	}
	if cfg.smoke {
		p.warmup, p.cycleEvery = 100*time.Millisecond, 250*time.Millisecond
	}
	return p, nil
}

// measured is one metric value with its unit and the number of samples
// behind it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	cfg       runConfig
	plan      plan
	metrics   map[string]measured
	attempted int
	failed    int
	void      []string // why the run is void; empty for a valid run
	warn      []string // what made the run measure less well than it should
	phases    map[string]time.Duration
	counts    map[string]int
	setups    []float64
}

// usage is a reading of the process's resource counters.
type usage struct {
	at         time.Time
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: m.TotalAlloc,
		numGC:      m.NumGC,
		pauseNS:    m.PauseTotalNs,
	}
}

// window is a measured stretch of the run with what it consumed.
type window struct {
	from, to usage
}

func (w window) cpu() time.Duration     { return w.to.cpu - w.from.cpu }
func (w window) alloc() uint64          { return w.to.totalAlloc - w.from.totalAlloc }
func (w window) gcCycles() uint32       { return w.to.numGC - w.from.numGC }
func (w window) gcPause() time.Duration { return time.Duration(w.to.pauseNS - w.from.pauseNS) }

// sampler polls the cheap gauges a traced run reports.
type sampler struct {
	stop          chan struct{}
	done          sync.WaitGroup
	goroutinesMax int
	tipsSum       float64
	tipsN         int
}

func startSampler(c *cluster) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if g := runtime.NumGoroutine(); g > s.goroutinesMax {
					s.goroutinesMax = g
				}
				s.tipsSum += float64(c.gatewayNode.Load().Tangle().TipCount())
				s.tipsN++
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// observations is everything the run collected, for analysis.
type observations struct {
	latency  phaseResult // the phase latencies are read from
	untraced phaseResult // traced runs: the same phase before the tracer went on
	closed   phaseResult // the closed-loop phase (goodput); may be the latency phase
	// closedIsLatency: the workload has one closed-loop phase that
	// serves as both.
	closedIsLatency bool
	windows         []window // measured stretches (for cpu/alloc)
	heapEnd         uint64
	cycles          []recoveryCycle
	allOps          []opRecord // every reading issued in measured phases

	// traced runs
	sampler                    *sampler
	tracer                     *tracer
	countersStart, countersEnd counters
	unmainWin, mainWin         window // the main phase with the tracer off, then on
	mainOps                    int    // readings issued in mainWin
}

// recoveryCycle is one reboot → replay → first reading → relay catch-up.
type recoveryCycle struct {
	rebootAt  time.Time
	recovery  time.Duration // reboot → first reading admitted
	replayed  int
	replayDur time.Duration
	catchup   time.Duration // relay joined → holds every transaction
	ledger    int           // gateway ledger size when the relay had caught up
	syncPages int64
}

// runWorkload sets a workload up, loads it, checks it and measures it.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	p, err := planFor(cfg)
	if err != nil {
		return nil, err
	}
	res := &runResult{cfg: cfg, plan: p, metrics: map[string]measured{}, phases: map[string]time.Duration{}, counts: map[string]int{}}

	// Set-up, several times over: the median is steadier than one. A
	// set-up is everything before the first measured reading: build the
	// cluster, preload (on an instant disk), then warm up under the
	// modelled disk. The last one is the cluster the run measures.
	var c *cluster
	var l *loader
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		c, err = buildCluster(ctx, cfg.seed, p.topo)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		l = newLoader(c)
		if err := preload(ctx, l, p.preload); err != nil {
			c.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		c.setFsyncDelay(fsyncDelay)
		l.untilReplicated = p.waitReplicas
		l.closedLoop(ctx, p.warmSessions, p.warmup)
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	defer c.close()

	obs := &observations{}
	if cfg.trace {
		obs.tracer = &tracer{}
		obs.sampler = startSampler(c)
	}
	if p.recoverFor > 0 {
		err = runRecovery(ctx, c, l, p, obs)
	} else {
		err = runLoad(ctx, c, l, p, obs)
	}
	if obs.sampler != nil {
		obs.sampler.finish()
	}
	c.setTracer(nil)
	if err != nil {
		return nil, err
	}

	// Confirmation needs later transactions; keep a trickle going until
	// the measured ones are confirmed everywhere.
	ids := admittedIDs(obs.allOps)
	if left := l.awaitConfirmed(ctx, ids, confirmDrain); left > 0 {
		res.void = append(res.void, fmt.Sprintf("%d admitted readings not confirmed on every node within %v", left, confirmDrain))
	}
	if err := c.gateway.node.FlushBroadcast(ctx); err != nil {
		return nil, err
	}

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	obs.heapEnd = m.HeapInuse

	analyze(c, obs, res)
	res.void = append(res.void, gate(c, obs, res)...)
	if cfg.trace {
		attribute(c, obs, res)
		if cfg.outDir != "" {
			spans := obs.tracer.snapshot()
			epoch := time.Now()
			if len(spans) > 0 {
				epoch = spans[0].Start
			}
			if err := writeTrace(fmt.Sprintf("%s/trace-%s.json", cfg.outDir, cfg.workload), epoch, spans); err != nil {
				return nil, err
			}
		}
	}
	// A metric the workload does not exercise reads 0.
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, spec := range list {
			if _, ok := res.metrics[spec.Name]; !ok {
				res.set(spec.Name, 0, 0)
			}
		}
	}
	return res, nil
}

// preload journals n readings through one device session. One session,
// because the journal of concurrent submitters is not in attachment
// order and its replay degrades (README.md, probe findings); a preloaded
// ledger must recover in time linear in its size.
func preload(ctx context.Context, l *loader, n int) error {
	for i := 0; i < n; i++ {
		if rec := l.post(ctx, l.order[i%len(l.order)], time.Now()); rec.err != nil {
			return rec.err
		}
	}
	return nil
}

// runLoad runs the load phases of the three load workloads: open loop
// (where the workload has one), then closed loop. A traced run spends the
// head of the main phase with the tracer still off.
func runLoad(ctx context.Context, c *cluster, l *loader, p plan, obs *observations) error {
	mainPhase := func(d time.Duration) (phaseResult, error) {
		if p.openRate > 0 {
			return l.openLoop(ctx, p.openRate, int(p.openRate*d.Seconds()), p.inFlight)
		}
		return l.closedLoop(ctx, p.sessions, d), nil
	}
	mainFor := p.openFor
	if p.openRate == 0 {
		mainFor = p.closedFor
	}
	var err error
	obs.countersStart = c.readCounters()
	mark := readUsage()
	if p.untracedFor > 0 {
		if obs.untraced, err = mainPhase(p.untracedFor); err != nil {
			return err
		}
		obs.unmainWin = window{mark, readUsage()}
		obs.windows = append(obs.windows, obs.unmainWin)
		obs.allOps = append(obs.allOps, obs.untraced.ops...)
		mainFor -= p.untracedFor
		mark = obs.unmainWin.to
		c.setTracer(obs.tracer)
	}
	if obs.latency, err = mainPhase(mainFor); err != nil {
		return err
	}
	obs.mainWin = window{mark, readUsage()}
	obs.mainOps = len(obs.latency.ops)
	obs.windows = append(obs.windows, obs.mainWin)
	obs.allOps = append(obs.allOps, obs.latency.ops...)
	if p.openRate == 0 {
		obs.closed, obs.closedIsLatency = obs.latency, true
	} else {
		obs.closed = l.closedLoop(ctx, p.sessions, p.closedFor)
		obs.windows = append(obs.windows, window{obs.mainWin.to, readUsage()})
		obs.allOps = append(obs.allOps, obs.closed.ops...)
	}
	obs.countersEnd = c.readCounters()
	return nil
}

// runRecovery runs recover-catchup: an open-loop trickle and beside it
// cycles of reboot → replay → first reading admitted → a fresh relay syncs
// the ledger, one every cycleEvery; then a closed loop on the gateway as
// the recoveries left it.
func runRecovery(ctx context.Context, c *cluster, l *loader, p plan, obs *observations) error {
	var (
		trickle    phaseResult
		trickleErr error
		done       sync.WaitGroup
	)
	obs.countersStart = c.readCounters()
	from := readUsage()
	started := time.Now()
	done.Add(1)
	go func() {
		defer done.Done()
		trickle, trickleErr = l.openLoop(ctx, p.openRate, int(p.openRate*p.recoverFor.Seconds()), p.inFlight)
	}()

	if p.untracedFor > 0 {
		// Quiet trickle, first untraced then traced, for the overhead.
		time.Sleep(p.untracedFor / 2)
		obs.unmainWin = window{from, readUsage()}
		c.setTracer(obs.tracer)
		time.Sleep(p.untracedFor / 2)
		obs.mainWin = window{obs.unmainWin.to, readUsage()}
	}
	// One cycle per cycleEvery, on a fixed timetable — the share of the
	// run spent in outage decides where the tail percentiles fall, so it
	// must not depend on how fast the cycles happen to go — for as long
	// as a whole slot still fits under the trickle. A cycle that overruns
	// its slot pushes the next one back.
	var cycleErr error
	first := time.Since(started)
	for k := 0; cycleErr == nil; k++ {
		slot := first + time.Duration(k)*p.cycleEvery
		if slot+p.cycleEvery > p.recoverFor {
			break
		}
		time.Sleep(slot - time.Since(started))
		var cyc recoveryCycle
		if cyc, cycleErr = recoverOnce(ctx, c, l); cycleErr == nil {
			obs.cycles = append(obs.cycles, cyc)
		}
	}
	done.Wait()
	obs.windows = append(obs.windows, window{from, readUsage()})
	if cycleErr != nil {
		return cycleErr
	}
	if trickleErr != nil {
		return trickleErr
	}
	if p.untracedFor > 0 {
		// Split the quiet head of the trickle into its untraced and
		// traced halves.
		cut := started.Add(p.untracedFor / 2)
		end := started.Add(p.untracedFor)
		for _, op := range trickle.ops {
			switch {
			case op.origin.Before(cut):
				obs.untraced.ops = append(obs.untraced.ops, op)
			case op.origin.Before(end):
				obs.mainOps++
			}
		}
	}
	obs.latency = trickle
	obs.closed = l.closedLoop(ctx, p.sessions, p.closedFor)
	obs.windows = append(obs.windows, window{obs.windows[0].to, readUsage()})
	obs.allOps = append(append(obs.allOps, trickle.ops...), obs.closed.ops...)
	obs.countersEnd = c.readCounters()
	return nil
}

// recoverOnce power-cycles the gateway, waits for the first reading it
// admits, then lets a fresh relay join and sync the whole ledger.
func recoverOnce(ctx context.Context, c *cluster, l *loader) (recoveryCycle, error) {
	cyc := recoveryCycle{rebootAt: time.Now()}
	served := c.target.served.Load()
	c.target.gate.Lock() // the outage: device calls wait from here on
	err := c.rebootGateway()
	c.target.gate.Unlock()
	if err != nil {
		return cyc, err
	}
	cyc.replayed, cyc.replayDur = c.gateway.replayed, c.gateway.replayDur
	// The trickle is open loop: a reading was due during the outage, so
	// the first admission follows at once. Should none be due, post one.
	deadline := time.Now().Add(2 * time.Second)
	for c.target.served.Load() == served {
		if time.Now().After(deadline) {
			if rec := l.post(ctx, l.order[0], time.Now()); rec.err != nil {
				return cyc, fmt.Errorf("first reading after reboot: %w", rec.err)
			}
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	cyc.recovery = time.Since(cyc.rebootAt)

	joinAt := time.Now()
	relay, err := c.newRelay(len(c.relays))
	if err != nil {
		return cyc, err
	}
	defer func() {
		c.gateway.tcp.RemovePeer(relay.tcp.Self())
		relay.close()
	}()
	// One SyncAll pages the ledger as it stood; the trickle keeps adding,
	// so the relay has caught up once it holds everything the gateway
	// held when the last page was served.
	for round := 0; ; round++ {
		target := c.gateway.node.Tangle().Size()
		relay.node.SyncAll(ctx)
		if relay.node.Tangle().Size() >= target {
			cyc.ledger = target
			break
		}
		if round == 8 {
			return cyc, fmt.Errorf("relay holds %d of %d transactions after %d sync rounds", relay.node.Tangle().Size(), target, round+1)
		}
	}
	cyc.catchup = time.Since(joinAt)
	cyc.syncPages = relay.node.Pipeline().SyncPages.Value()
	return cyc, nil
}

// ---- analysis ----------------------------------------------------------

// earliest folds arrival logs into id → first time seen.
func earliest(logs ...[]arrival) map[hashutil.Hash]time.Time {
	out := make(map[hashutil.Hash]time.Time)
	for _, log := range logs {
		for _, a := range log {
			if t, ok := out[a.id]; !ok || a.at.Before(t) {
				out[a.id] = a.at
			}
		}
	}
	return out
}

// latencies holds, per admitted reading of a phase, its three latencies
// in milliseconds (ascending), plus how many readings missed one.
type latencies struct {
	admit, replicate, confirm []float64
	unreplicated, unconfirmed int
}

type visibility struct {
	replicated []map[hashutil.Hash]time.Time // per relay
	confirmed  []map[hashutil.Hash]time.Time // per node
}

func (c *cluster) visibility() visibility {
	var v visibility
	for _, r := range c.relays {
		r.peers.mu.Lock()
		v.replicated = append(v.replicated, earliest(r.peers.arrivals))
		r.peers.mu.Unlock()
	}
	for _, n := range c.nodes() {
		v.confirmed = append(v.confirmed, earliest(n.confirms.snapshot()))
	}
	return v
}

// replicatedAt returns when id was attached on the last relay.
func (v visibility) replicatedAt(id hashutil.Hash) (time.Time, bool) {
	var last time.Time
	for _, seen := range v.replicated {
		t, ok := seen[id]
		if !ok {
			return time.Time{}, false
		}
		if t.After(last) {
			last = t
		}
	}
	return last, true
}

// confirmedAt returns when id was confirmed on the last node.
func (v visibility) confirmedAt(id hashutil.Hash) (time.Time, bool) {
	var last time.Time
	for _, seen := range v.confirmed {
		t, ok := seen[id]
		if !ok {
			return time.Time{}, false
		}
		if t.After(last) {
			last = t
		}
	}
	return last, true
}

func phaseLatencies(ops []opRecord, v visibility) latencies {
	var out latencies
	for i := range ops {
		op := &ops[i]
		if op.err != nil {
			continue
		}
		out.admit = append(out.admit, ms(op.admitted.Sub(op.origin)))
		if len(v.replicated) > 0 {
			if t, ok := v.replicatedAt(op.id); ok {
				out.replicate = append(out.replicate, ms(t.Sub(op.origin)))
			} else {
				out.unreplicated++
			}
		}
		if t, ok := v.confirmedAt(op.id); ok {
			out.confirm = append(out.confirm, ms(t.Sub(op.origin)))
		} else {
			out.unconfirmed++
		}
	}
	sort.Float64s(out.admit)
	sort.Float64s(out.replicate)
	sort.Float64s(out.confirm)
	return out
}

// outsideOutages returns the readings that did not meet an outage of any
// recovery cycle: due after the recovery ended or admitted before the
// power cut.
func outsideOutages(ops []opRecord, cycles []recoveryCycle) []opRecord {
	var out []opRecord
	for i := range ops {
		op := &ops[i]
		hit := false
		for _, cyc := range cycles {
			if op.origin.Before(cyc.rebootAt.Add(cyc.recovery)) && op.admitted.After(cyc.rebootAt) {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, *op)
		}
	}
	return out
}

func failures(ops []opRecord) int {
	n := 0
	for i := range ops {
		if ops[i].err != nil {
			n++
		}
	}
	return n
}

func (r *runResult) warnf(format string, args ...any) {
	r.warn = append(r.warn, fmt.Sprintf(format, args...))
}

func (r *runResult) set(name string, value float64, n int) {
	spec, ok := findMetric(endToEnd, name)
	if !ok {
		spec, ok = findMetric(perLayer, name)
	}
	if !ok {
		panic("metric not in spec.go: " + name) // a bug in this program
	}
	r.metrics[name] = measured{Value: value, Unit: spec.Unit, N: n}
}

// analyze turns the observations into the end-to-end metrics (and the
// end-to-end-like per-layer ones). Per-layer attribution proper is in
// layers.go.
func analyze(c *cluster, obs *observations, res *runResult) {
	v := c.visibility()
	all := phaseLatencies(obs.latency.ops, v)
	// The latency percentiles of recover-catchup are those of the readings
	// the gateway served while it was up, beside replay and sync. A reading
	// that met an outage waited for the recovery, which is processor-bound
	// bulk work reported as recovery_s; with those readings in, the upper
	// percentiles are the recovery time over again.
	lat := all
	if len(obs.cycles) > 0 {
		lat = phaseLatencies(outsideOutages(obs.latency.ops, obs.cycles), v)
	}
	res.attempted = len(obs.allOps)
	res.failed = failures(obs.allOps)
	res.counts["latency_ops"] = len(obs.latency.ops)
	res.counts["closed_ops"] = len(obs.closed.ops)
	res.counts["admit_samples"] = len(lat.admit)
	res.counts["replicate_samples"] = len(lat.replicate)
	res.counts["confirm_samples"] = len(lat.confirm)
	res.counts["unreplicated"] = all.unreplicated
	res.counts["unconfirmed"] = all.unconfirmed
	res.phases["latency_phase"] = obs.latency.end.Sub(obs.latency.start)
	res.phases["closed_phase"] = obs.closed.end.Sub(obs.closed.start)

	res.set("setup_s", median(res.setups), len(res.setups))
	res.set("admit_p50_ms", percentile(lat.admit, 50), len(lat.admit))
	res.set("admit_p95_ms", percentile(lat.admit, 95), len(lat.admit))
	res.set("admit_p99_ms", percentile(lat.admit, 99), len(lat.admit))
	res.set("confirm_p50_ms", percentile(lat.confirm, 50), len(lat.confirm))
	res.set("confirm_p95_ms", percentile(lat.confirm, 95), len(lat.confirm))
	res.set("confirm_p99_ms", percentile(lat.confirm, 99), len(lat.confirm))
	res.set("replicate_p50_ms", percentile(lat.replicate, 50), len(lat.replicate))
	res.set("replicate_p99_ms", percentile(lat.replicate, 99), len(lat.replicate))

	var recov, catchTPS []float64
	for _, cyc := range obs.cycles {
		recov = append(recov, cyc.recovery.Seconds())
		catchTPS = append(catchTPS, safeDiv(float64(cyc.ledger), cyc.catchup.Seconds()))
	}
	res.counts["recovery_cycles"] = len(obs.cycles)
	res.set("recovery_s", median(recov), len(recov))
	res.set("catchup_tps", median(catchTPS), len(catchTPS))

	// Closed loop: readings admitted (and attached on every relay),
	// counted per whole second of the phase; the median second is
	// reported, which a collector cycle or a stolen core in one second
	// does not move.
	span := obs.closed.end.Sub(obs.closed.start)
	buckets := make([]float64, int(span/time.Second))
	width := time.Second
	if len(buckets) == 0 { // a phase under a second (smoke runs)
		buckets, width = make([]float64, 1), span
	}
	done := 0
	for i := range obs.closed.ops {
		op := &obs.closed.ops[i]
		if op.err != nil {
			continue
		}
		at := op.admitted
		if len(c.relays) > 0 {
			t, ok := v.replicatedAt(op.id)
			if !ok {
				continue
			}
			at = t
		}
		if b := int(at.Sub(obs.closed.start) / width); b >= 0 && b < len(buckets) {
			buckets[b]++
			done++
		}
	}
	res.set("goodput_tps", median(buckets)/width.Seconds(), done)

	// Processor time and allocation per unit of work, over the phase the
	// latencies come from: its load is fixed by the benchmark (a rate, or
	// nproc sessions), so the ratio does not move with how many readings
	// a closed loop happened to fit in. The work of recover-catchup is the
	// trickle plus the records replayed and the transactions synced, which
	// is where that workload's processor time goes.
	costWin := obs.mainWin
	work := len(obs.latency.ops) - failures(obs.latency.ops)
	if len(obs.cycles) > 0 {
		costWin = obs.windows[0]
		for _, cyc := range obs.cycles {
			work += cyc.replayed + cyc.ledger
		}
	}
	res.counts["work_tx"] = work
	res.set("cpu_ms_per_tx", safeDiv(ms(costWin.cpu()), float64(work)), work)
	res.set("alloc_kb_per_tx", safeDiv(float64(costWin.alloc())/1024, float64(work)), work)
	res.set("heap_mb_end", float64(obs.heapEnd)/(1<<20), 1)

	// Open-loop readings that failed, were refused, or took longer than
	// the workload's limit.
	if p := res.plan; p.admitLimit > 0 || p.replicateLimit > 0 {
		missed := 0
		for i := range obs.latency.ops {
			op := &obs.latency.ops[i]
			switch {
			case op.err != nil:
				missed++
			case p.admitLimit > 0 && op.admitted.Sub(op.origin) > p.admitLimit:
				missed++
			case p.replicateLimit > 0:
				if t, ok := v.replicatedAt(op.id); !ok || t.Sub(op.origin) > p.replicateLimit {
					missed++
				}
			}
		}
		res.set("slo_miss_frac", safeDiv(float64(missed), float64(len(obs.latency.ops))), len(obs.latency.ops))
	}
	res.set("failed_frac", safeDiv(float64(res.failed), float64(res.attempted)), res.attempted)
}
