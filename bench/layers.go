package main

import (
	"math"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Per-layer attribution of a traced run. Three sources, all outside the
// program: what the seams saw (spans and counts at the device ↔ gateway,
// gateway ↔ disk and gateway ↔ peers boundaries), the counters the node
// already exports, and a single-threaded replay of the admitted
// transaction stream through each package's exported functions.

// counters is a reading of the cumulative counts the attribution takes
// deltas of, so that set-up, preload and warm-up are left out.
type counters struct {
	at                       time.Time
	accepted                 int64 // gateway admissions
	syncs, writeBytes        int64 // gateway disk
	syncNS, writeNS          int64
	txMessages, txSent       int64 // gateway → peers
	bytesOut                 int64
	sendFailures             int64
	relayBusy                time.Duration
	relayTx, relayBatches    int64
	rejected, rateLimited    int64
	journalErrors, peerDrops int64
	orphanSyncs, syncPages   int64
	verifyCacheHits          int64
}

// addNode adds the counts one node's process keeps. They die with the
// process, which is why a rebooted gateway's are carried (cluster.carry).
func (k *counters) addNode(n *fullNode, gateway bool) {
	cv, pl := n.node.CountersView(), n.node.Pipeline()
	k.rejected += cv.Rejected.Value()
	k.rateLimited += cv.RateLimited.Value()
	k.journalErrors += cv.JournalErrors.Value()
	k.peerDrops += pl.PeerDrops.Value()
	k.orphanSyncs += pl.OrphanSyncs.Value()
	k.syncPages += pl.SyncPages.Value()
	k.verifyCacheHits += pl.VerifyCacheHits.Value()
	if gateway {
		k.accepted += cv.Accepted.Value()
		k.sendFailures += pl.SendFailures.Value()
		if n.tcp != nil {
			k.bytesOut += n.tcp.Metrics().BytesOut.Value()
		}
	}
}

func (c *cluster) readCounters() counters {
	out := c.carry
	out.at = time.Now()
	gw := c.gateway
	out.addNode(gw, true)
	out.syncs = gw.diskStats.syncs.Load()
	out.writeBytes = gw.diskStats.writeBytes.Load()
	out.syncNS = gw.diskStats.syncNS.Load()
	out.writeNS = gw.diskStats.writeNS.Load()
	gw.peers.mu.Lock()
	out.txMessages, out.txSent = gw.peers.txMessages, gw.peers.txSent
	gw.peers.mu.Unlock()
	for _, r := range c.relays {
		out.addNode(r, false)
		r.peers.mu.Lock()
		out.relayBusy += r.peers.handleBusy
		out.relayTx += r.peers.txHandled
		out.relayBatches += r.peers.txBatches
		r.peers.mu.Unlock()
	}
	return out
}

// callStats summarises the gateway calls the devices made in traced
// readings.
type callStats struct {
	dur         [numCallKinds][]float64 // microseconds, ascending after finish
	calls       int
	readings    int
	tipValidate []float64 // µs: tips returned → last tip fetched
	stageSum    []float64 // ms, per single-try reading: Σ calls + sign + PoW
	admit       []float64 // ms, same readings
}

func gatherCalls(phases ...[]opRecord) callStats {
	var cs callStats
	for _, ops := range phases {
		for i := range ops {
			op := &ops[i]
			if op.err != nil || len(op.calls) == 0 {
				continue
			}
			cs.readings++
			cs.calls += len(op.calls)
			var total time.Duration
			var tipsEnd, lastGet, diffStart time.Time
			submits := 0
			for _, call := range op.calls {
				d := call.end.Sub(call.start)
				total += d
				cs.dur[call.kind] = append(cs.dur[call.kind], us(d))
				switch call.kind {
				case callTips:
					tipsEnd = call.end
				case callGetTx:
					lastGet = call.end
				case callDifficulty:
					diffStart = call.start
				case callSubmit:
					submits++
				}
			}
			if submits != 1 || lastGet.IsZero() || diffStart.IsZero() {
				continue // a retried reading: its stages do not form one chain
			}
			sign := diffStart.Sub(lastGet)
			cs.tipValidate = append(cs.tipValidate, us(lastGet.Sub(tipsEnd)))
			cs.stageSum = append(cs.stageSum, ms(total+sign+op.powTime))
			cs.admit = append(cs.admit, ms(op.admitted.Sub(op.origin)))
		}
	}
	for k := range cs.dur {
		cs.dur[k] = sortedCopy(cs.dur[k])
	}
	return cs
}

var callSpanNames = [numCallKinds]string{
	callTips:       "gateway.tips",
	callGetTx:      "gateway.get_tx",
	callDifficulty: "gateway.difficulty",
	callSubmit:     "gateway.submit",
}

// emitReadingSpans writes each traced reading into the trace: a root
// span for PostReading, the gateway calls under it and, from the gaps
// between them, the device's signing and PoW search. They are added when
// the run ends because the transaction ID — which spans of one reading
// share — is only known once it returns.
func emitReadingSpans(tr *tracer, ops []opRecord) {
	for i := range ops {
		op := &ops[i]
		if len(op.calls) == 0 {
			continue
		}
		root := tr.add("device.post_reading", op.origin, op.admitted, -1, op.id)
		var lastGet, diffEnd time.Time
		for _, call := range op.calls {
			tr.add(callSpanNames[call.kind], call.start, call.end, root, op.id)
			switch call.kind {
			case callGetTx:
				lastGet = call.end
			case callDifficulty:
				if !lastGet.IsZero() {
					tr.add("device.sign", lastGet, call.start, root, op.id)
				}
				diffEnd = call.end
			case callSubmit:
				if !diffEnd.IsZero() {
					tr.add("pow.search", diffEnd, call.start, root, op.id)
				}
				lastGet, diffEnd = time.Time{}, time.Time{}
			}
		}
	}
}

// attribute fills in the per-layer metrics of a traced run. A stage sum
// that does not reconcile is a warning, not a void run: what is left over
// is goroutine wake-ups and timer overshoot, which a busy host stretches.
func attribute(c *cluster, obs *observations, res *runResult) {
	delta := obs.countersEnd
	from := obs.countersStart
	wall := delta.at.Sub(from.at).Seconds()
	admittedGW := float64(delta.accepted - from.accepted)

	// loadgen
	res.set("loadgen.late_p99_ms", percentile(durationsMS(obs.latency.lateness), 99), len(obs.latency.lateness))
	res.set("loadgen.ops", float64(res.attempted), res.attempted)
	inflight := obs.latency.inFlightMax
	if obs.closed.inFlightMax > inflight {
		inflight = obs.closed.inFlightMax
	}
	res.set("loadgen.inflight_max", float64(inflight), 1)

	// device ↔ gateway
	emitReadingSpans(obs.tracer, obs.latency.ops)
	emitReadingSpans(obs.tracer, obs.tracedClosedOps())
	cs := gatherCalls(obs.latency.ops, obs.tracedClosedOps())
	res.set("node.light.tip_validate_us", mean(cs.tipValidate), len(cs.tipValidate))
	res.set("node.light.submit_calls_per_tx", safeDiv(float64(len(cs.dur[callSubmit])), float64(cs.readings)), cs.readings)
	submitMS := make([]float64, len(cs.dur[callSubmit]))
	for i, v := range cs.dur[callSubmit] {
		submitMS[i] = v / 1000
	}
	res.set("node.submit_ms_p50", percentile(submitMS, 50), len(submitMS))
	res.set("node.submit_ms_p99", percentile(submitMS, 99), len(submitMS))
	res.set("node.submit_ms_p999", percentile(submitMS, 99.9), len(submitMS))
	res.set("node.submit_ms_max", percentile(submitMS, 100), len(submitMS))
	if c.topo.viaRPC {
		res.set("rpc.tips_us_p50", percentile(cs.dur[callTips], 50), len(cs.dur[callTips]))
		res.set("rpc.get_tx_us_p50", percentile(cs.dur[callGetTx], 50), len(cs.dur[callGetTx]))
		res.set("rpc.difficulty_us_p50", percentile(cs.dur[callDifficulty], 50), len(cs.dur[callDifficulty]))
		res.set("rpc.submit_ms_p50", percentile(submitMS, 50), len(submitMS))
		res.set("rpc.calls_per_tx", safeDiv(float64(cs.calls), float64(cs.readings)), cs.readings)
		// The node's own share of the read calls, from the 1-in-50
		// shadow calls straight into it.
		c.target.mu.Lock()
		sh := c.target.shadow
		c.target.mu.Unlock()
		var via, direct time.Duration
		n := 0
		for _, s := range sh {
			via, direct, n = via+s.viaGW, direct+s.direct, n+s.n
		}
		res.set("rpc.read_overhead_us", safeDiv(us(via-direct), float64(n)), n)
		res.set("node.tips_us_p50", safeDiv(us(sh[callTips].direct), float64(sh[callTips].n)), sh[callTips].n)
		res.set("node.get_tx_us_p50", safeDiv(us(sh[callGetTx].direct), float64(sh[callGetTx].n)), sh[callGetTx].n)
		res.set("node.difficulty_us_p50", safeDiv(us(sh[callDifficulty].direct), float64(sh[callDifficulty].n)), sh[callDifficulty].n)
	} else {
		res.set("node.tips_us_p50", percentile(cs.dur[callTips], 50), len(cs.dur[callTips]))
		res.set("node.get_tx_us_p50", percentile(cs.dur[callGetTx], 50), len(cs.dur[callGetTx]))
		res.set("node.difficulty_us_p50", percentile(cs.dur[callDifficulty], 50), len(cs.dur[callDifficulty]))
	}

	// pow, as the devices reported it
	var powUS, attempts []float64
	for i := range obs.allOps {
		if op := &obs.allOps[i]; op.err == nil {
			powUS = append(powUS, us(op.powTime))
			attempts = append(attempts, float64(op.attempts))
		}
	}
	res.set("pow.search_us_per_tx", mean(powUS), len(powUS))
	res.set("pow.attempts_per_tx", mean(attempts), len(attempts))

	// gateway ↔ disk
	res.set("store.fsyncs_per_tx", safeDiv(float64(delta.syncs-from.syncs), admittedGW), int(admittedGW))
	res.set("store.bytes_per_tx", safeDiv(float64(delta.writeBytes-from.writeBytes), admittedGW), int(admittedGW))
	res.set("store.fsync_busy_frac", safeDiv(float64(delta.syncNS-from.syncNS)/1e9, wall), int(delta.syncs-from.syncs))
	res.set("store.write_busy_frac", safeDiv(float64(delta.writeNS-from.writeNS)/1e9, wall), int(delta.syncs-from.syncs))

	// gateway ↔ peers
	msgs := float64(delta.txMessages - from.txMessages)
	res.set("gossip.msgs_per_tx", safeDiv(msgs, admittedGW), int(admittedGW))
	res.set("gossip.bytes_per_tx", safeDiv(float64(delta.bytesOut-from.bytesOut), admittedGW), int(admittedGW))
	res.set("gossip.tx_per_msg", safeDiv(float64(delta.txSent-from.txSent), msgs), int(msgs))
	c.gateway.peers.mu.Lock()
	reqMS := durationsMS(c.gateway.peers.requestDur)
	c.gateway.peers.mu.Unlock()
	res.set("gossip.request_ms_p50", percentile(reqMS, 50), len(reqMS))
	res.set("gossip.send_failures", float64(delta.sendFailures-from.sendFailures), 1)
	relayTx := float64(delta.relayTx - from.relayTx)
	res.set("node.relay_handle_us_per_tx", safeDiv(us(delta.relayBusy-from.relayBusy), relayTx), int(relayTx))
	batchMean := safeDiv(relayTx, float64(delta.relayBatches-from.relayBatches))
	res.set("node.relay_batch_mean", batchMean, int(delta.relayBatches-from.relayBatches))

	// node counters
	pl := c.gateway.node.Pipeline()
	admitStage, attachStage, bcast := pl.AdmitLatency.Summarize(), pl.AttachLatency.Summarize(), pl.BroadcastLatency.Summarize()
	res.set("node.admit_stage_us_mean", us(admitStage.Mean), admitStage.Count)
	res.set("node.attach_stage_us_mean", us(attachStage.Mean), attachStage.Count)
	res.set("node.broadcast_ms_mean", ms(bcast.Mean), bcast.Count)
	res.set("node.verify_cache_hits", float64(delta.verifyCacheHits-from.verifyCacheHits), 1)
	res.set("node.rejected", float64(delta.rejected-from.rejected), 1)
	res.set("node.rate_limited", float64(delta.rateLimited-from.rateLimited), 1)
	res.set("node.journal_errors", float64(delta.journalErrors-from.journalErrors), 1)
	res.set("node.peer_drops", float64(delta.peerDrops-from.peerDrops), 1)
	res.set("node.orphan_syncs", float64(delta.orphanSyncs-from.orphanSyncs), 1)

	// recovery and catch-up
	var replayed, pages int64
	var replayDur, catchup time.Duration
	for _, cyc := range obs.cycles {
		replayed += int64(cyc.replayed)
		replayDur += cyc.replayDur
		pages += cyc.syncPages
		catchup += cyc.catchup
	}
	res.set("node.sync_pages", float64(pages+delta.syncPages-from.syncPages), 1)
	res.set("node.replay_us_per_tx", safeDiv(us(replayDur), float64(replayed)), int(replayed))
	res.set("node.sync_page_ms", safeDiv(ms(catchup), float64(pages)), int(pages))

	// metrics, tangle gauges, runtime
	samples := 0
	for _, n := range c.nodes() {
		p := n.node.Pipeline()
		samples += p.AdmitLatency.Count() + p.AttachLatency.Count() + p.BroadcastLatency.Count() + p.VerifyLatency.Count()
		if n.tcp != nil {
			samples += n.tcp.Metrics().ExchangeRTT.Count()
		}
	}
	res.set("metrics.hist_samples_end", float64(samples), 1)
	res.set("tangle.walk_len_max", float64(c.gateway.node.LedgerMetrics().WalkLengthMax.Value()), 1)
	res.set("tangle.tips_mean", safeDiv(obs.sampler.tipsSum, float64(obs.sampler.tipsN)), obs.sampler.tipsN)
	res.set("go.goroutines_max", float64(obs.sampler.goroutinesMax), obs.sampler.tipsN)
	var pause time.Duration
	var cycles uint32
	for _, w := range obs.windows {
		pause += w.gcPause()
		cycles += w.gcCycles()
	}
	res.set("go.gc_pause_ms_total", ms(pause), int(cycles))
	res.set("go.gc_cycles", float64(cycles), 1)

	// trace: what recording spans costs, and whether the stages add up.
	res.set("trace.overhead_frac", traceOverhead(obs), len(obs.untraced.ops))
	gap, queueWait, n := stageGaps(c, obs, cs)
	res.set("node.queue_wait_ms", queueWait, n)
	res.set("trace.stage_sum_gap_frac", gap, len(cs.stageSum))
	if c.topo.viaRPC && !res.cfg.smoke && gap > stageGapLimit {
		res.warnf("traced stages do not sum to the end-to-end latency: gap %.1f%% > %.0f%%", gap*100, stageGapLimit*100)
	}

	replayLayers(c, res, int(math.Round(batchMean)))
}

// tracedClosedOps returns the closed-loop readings when they are a phase
// of their own (they are traced too).
func (o *observations) tracedClosedOps() []opRecord {
	if o.closedIsLatency {
		return nil
	}
	return o.closed.ops
}

// traceOverhead compares processor time per reading in the main phase
// with the tracer on and off.
func traceOverhead(obs *observations) float64 {
	off := safeDiv(ms(obs.unmainWin.cpu()), float64(len(obs.untraced.ops)))
	on := safeDiv(ms(obs.mainWin.cpu()), float64(obs.mainOps))
	if off == 0 {
		return 0
	}
	return on/off - 1
}

// stageGaps checks that the stages seen at the seams add up to the
// end-to-end latencies. It returns the larger relative gap of the two
// chains, the mean wait between admission and hand-over to the
// transport, and the number of readings the second chain covers.
//
// Admission: tips → tip fetches → sign → difficulty → PoW → submit
// against PostReading's own duration. Replication, for the slowest
// relay of each reading: admission, then the wait until the batch
// carrying it is handed to the transport, then the configured link
// delay, then the relay's handling, against due → attached there; what
// is left over is the transport itself and timer overshoot.
func stageGaps(c *cluster, obs *observations, cs callStats) (gap, queueWaitMS float64, n int) {
	if m := mean(cs.admit); m > 0 {
		gap = math.Abs(m-mean(cs.stageSum)) / m
	}
	if len(c.relays) == 0 {
		return gap, 0, 0
	}
	c.gateway.peers.mu.Lock()
	sends := c.gateway.peers.sends
	c.gateway.peers.mu.Unlock()
	type hop struct{ sent, start, end time.Time }
	perRelay := make([]map[hashutil.Hash]*hop, len(c.relays))
	for i, r := range c.relays {
		hops := make(map[hashutil.Hash]*hop)
		addr := r.tcp.Self()
		for _, s := range sends {
			if s.peer != addr {
				continue
			}
			for _, id := range s.ids {
				hops[id] = &hop{sent: s.at}
			}
		}
		r.peers.mu.Lock()
		for _, h := range r.peers.handles {
			for _, id := range h.ids {
				if hp := hops[id]; hp != nil && hp.start.IsZero() {
					hp.start, hp.end = h.start, h.end
				}
			}
		}
		r.peers.mu.Unlock()
		perRelay[i] = hops
	}
	var replicate, sum, wait []float64
	for i := range obs.latency.ops {
		op := &obs.latency.ops[i]
		if op.err != nil {
			continue
		}
		var slowest *hop
		for _, hops := range perRelay {
			hp := hops[op.id]
			if hp == nil || hp.start.IsZero() {
				slowest = nil
				break
			}
			if slowest == nil || hp.end.After(slowest.end) {
				slowest = hp
			}
		}
		if slowest == nil {
			continue // repaired through the orphan path, not one chain
		}
		q := slowest.sent.Sub(op.admitted)
		wait = append(wait, ms(q))
		replicate = append(replicate, ms(slowest.end.Sub(op.origin)))
		sum = append(sum, ms(op.admitted.Sub(op.origin)+q+linkDelay+slowest.end.Sub(slowest.start)))
	}
	if m := mean(replicate); m > 0 {
		if g := math.Abs(m-mean(sum)) / m; g > gap {
			gap = g
		}
	}
	return gap, mean(wait), len(wait)
}

// ---- layer replay ------------------------------------------------------

// perOp times f over n calls and returns microseconds per call.
func perOp(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return us(time.Since(start)) / float64(n)
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// replayLayers pushes the head of the admitted stream, single-threaded,
// through each package's exported functions. batch is the gossip batch
// size seen in the run (the default cap where the workload has no
// relays).
func replayLayers(c *cluster, res *runResult, batch int) {
	gw := c.gateway.node
	stream := gw.Tangle().ExportRange(0, replaySample)
	var txs []*txn.Transaction
	for _, t := range stream {
		if t.Kind != txn.KindGenesis {
			txs = append(txs, t)
		}
	}
	n := len(txs)
	if batch < 1 {
		batch = 32 // node's default BroadcastBatch
	}

	// txn
	raws := make([][]byte, n)
	fresh := make([]*txn.Transaction, n)
	for i, t := range txs {
		raws[i] = append([]byte(nil), t.Encode()...)
		fresh[i] = t.Clone()
		fresh[i].Invalidate()
	}
	res.set("txn.encode_us", perOp(n, func(i int) { sink = fresh[i].Encode() }), n)
	decoded := make([]*txn.Transaction, n)
	res.set("txn.decode_us", perOp(n, func(i int) { decoded[i], _ = txn.Decode(raws[i]) }), n)
	res.set("txn.id_us", perOp(n, func(i int) { sink = decoded[i].ID() }), n)

	// identity
	key := c.devKeys[0]
	res.set("identity.sign_us", perOp(n, func(i int) { sink = key.Sign(txs[i].SigningBytes()) }), n)
	res.set("identity.verify_us", perOp(n, func(i int) {
		sink = identity.Verify(txs[i].Issuer, txs[i].SigningBytes(), txs[i].Signature)
	}), n)
	pubs := make([]identity.PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([][]byte, n)
	for i, t := range txs {
		pubs[i], msgs[i], sigs[i] = t.Issuer, t.SigningBytes(), t.Signature
	}
	start := time.Now()
	for i := 0; i < n; i += batch {
		end := i + batch
		if end > n {
			end = n
		}
		sink = identity.VerifyBatch(pubs[i:end], msgs[i:end], sigs[i:end])
	}
	res.set("identity.verify_batch_us_per_sig", safeDiv(us(time.Since(start)), float64(n)), n)

	// pow
	res.set("pow.verify_us", perOp(n, func(i int) {
		sink = pow.Verify(txs[i].Trunk, txs[i].Branch, txs[i].Nonce, 1)
	}), n)

	// core: a fresh credit ledger fed the stream, then difficulty asked
	// with the window full, cycling through the accounts.
	ledger, err := core.NewLedger(c.creditParams())
	if err == nil {
		now := time.Now()
		res.set("core.record_us", perOp(n, func(i int) {
			ledger.RecordTransaction(txs[i].Sender(), txs[i].ID(), 1, txs[i].Timestamp)
		}), n)
		engine := core.NewEngine(ledger, nil)
		res.set("core.difficulty_us", perOp(n, func(i int) {
			sink = engine.DifficultyFor(c.devKeys[i%len(c.devKeys)].Address(), now)
		}), n)
	}

	// authz, against the gateway's own registry
	reg := gw.Registry()
	res.set("authz.is_authorized_us", perOp(n, func(i int) { sink = reg.IsAuthorizedDevice(txs[i].Sender()) }), n)
	res.set("authz.evidence_verdict_us", perOp(n, func(i int) {
		v, _ := reg.EvidenceVerdict(txs[i].Sender(), 1)
		sink = v
	}), n)

	// tangle: attach the stream to a fresh ledger, then read it back.
	cfg := tangle.DefaultConfig()
	cfg.Seed = c.seed
	if tg, err := tangle.New(cfg, c.mgrKey.Public(), nil); err == nil {
		res.set("tangle.attach_us", perOp(n, func(i int) { _, _ = tg.Attach(txs[i]) }), n)
		res.set("tangle.select_tips_us", perOp(n, func(int) { _, _, _ = tg.SelectTips(tangle.StrategyUniform) }), n)
		res.set("tangle.get_us", perOp(n, func(i int) { sink, _ = tg.Get(txs[i].ID()) }), n)
		pages := (n + 255) / 256
		res.set("tangle.export_page_us", perOp(pages, func(i int) { sink = tg.ExportRange(i*256, 256) }), pages)
	}
	if tg, err := tangle.New(cfg, c.mgrKey.Public(), nil); err == nil {
		res.set("tangle.restore_us", perOp(n, func(i int) { _, _ = tg.Restore(txs[i]) }), n)
	}

	// store: append to an instant disk (processor cost only), then replay.
	disk := newModelDisk()
	if log, err := store.OpenFS(disk, journalPath, nil); err == nil {
		res.set("store.append_cpu_us", perOp(n, func(i int) { _ = log.Append(txs[i]) }), n)
		_ = log.Close()
		start := time.Now()
		if log, err := store.OpenFS(disk, journalPath, func(*txn.Transaction) error { return nil }); err == nil {
			res.set("store.replay_us_per_tx", safeDiv(us(time.Since(start)), float64(n)), n)
			_ = log.Close()
		}
	}

	// gossip codec, at the batch size the run saw
	var encoded [][]byte
	start = time.Now()
	for i := 0; i < n; i += batch {
		end := i + batch
		if end > n {
			end = n
		}
		encoded = append(encoded, gossip.EncodeMessage(gossip.Message{Type: gossip.MsgTransaction, TxData: raws[i:end], Scoped: true}))
	}
	res.set("gossip.encode_us_per_tx", safeDiv(us(time.Since(start)), float64(n)), n)
	start = time.Now()
	for _, e := range encoded {
		m, _ := gossip.DecodeMessage(e)
		sink = m
	}
	res.set("gossip.decode_us_per_tx", safeDiv(us(time.Since(start)), float64(n)), n)

	// metrics
	var h metrics.Histogram
	const observes = 200000
	res.set("metrics.observe_ns", 1000*perOp(observes, func(i int) { h.Observe(time.Duration(i)) }), observes)
}
