package main

import (
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/loadgen"
	"github.com/b-iot/biot/internal/tangle"
)

// maxInFlight bounds the open-loop goroutines; they park on the
// durability barrier.
const maxInFlight = 64

// opRecord is one reading from the outside: when it was due (open loop)
// or started (closed loop), when PostReading returned, and what the
// device reported.
type opRecord struct {
	origin   time.Time
	admitted time.Time
	id       hashutil.Hash
	err      error
	attempts uint64        // PoW attempts of the accepted try
	powTime  time.Duration // PoW search time of the accepted try
	calls    []gatewayCall // traced runs: the gateway calls the device made
}

// phaseResult is one load phase.
type phaseResult struct {
	open        bool
	start, end  time.Time
	ops         []opRecord
	lateness    []time.Duration // open loop: how late each op fired
	inFlightMax int
}

// loader issues readings. Devices are visited in a seed-derived order,
// which is the per-device phase offset: reading i belongs to device
// order[i mod devices].
type loader struct {
	c     *cluster
	order []int
	seq   atomic.Uint64 // readings issued so far; numbers the payloads
	// untilReplicated makes a closed-loop session wait until its reading
	// is attached on every relay before it starts the next. Admission
	// alone exerts no backpressure on a gateway without a journal: the
	// broadcaster drops for a slow peer instead of refusing, so sessions
	// that only waited for admission would measure the drop rate.
	untilReplicated bool
}

// replicateTimeout bounds a session's wait for its reading to reach
// every relay; expiry fails the reading.
const replicateTimeout = 10 * time.Second

func newLoader(c *cluster) *loader {
	rng := rand.New(rand.NewSource(c.seed))
	return &loader{c: c, order: rng.Perm(len(c.devices))}
}

// reading makes the n-th 64-byte sensor reading of this seed.
func (l *loader) reading(n uint64) []byte {
	out := make([]byte, readingBytes)
	x := uint64(l.c.seed)*0x9e3779b97f4a7c15 + n
	for i := 0; i < readingBytes; i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out
}

// post has one device publish one reading.
func (l *loader) post(ctx context.Context, dev int, origin time.Time) opRecord {
	d := l.c.devices[dev]
	payload := l.reading(l.seq.Add(1))
	d.mu.Lock()
	res, err := d.light.PostReading(ctx, payload)
	rec := opRecord{origin: origin, admitted: time.Now(), err: err}
	rec.calls, d.seam.calls = d.seam.calls, nil
	d.mu.Unlock()
	if err == nil {
		rec.id = res.Info.ID
		rec.attempts = res.Pow.Attempts
		rec.powTime = res.Pow.Elapsed
	}
	return rec
}

// openLoop offers count readings at a fixed rate; latency counts from
// the instant each was due.
func (l *loader) openLoop(ctx context.Context, rate float64, count, inFlightBound int) (phaseResult, error) {
	res := phaseResult{open: true, ops: make([]opRecord, count)}
	var inFlight, peak atomic.Int64
	res.start = time.Now()
	gen, err := loadgen.Run(ctx, loadgen.Config{Rate: rate, Count: count, MaxInFlight: inFlightBound},
		func(i int, scheduled time.Time) error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			res.ops[i] = l.post(ctx, l.order[i%len(l.order)], scheduled)
			inFlight.Add(-1)
			return res.ops[i].err
		})
	res.end = time.Now()
	if err != nil {
		return res, err
	}
	res.lateness = make([]time.Duration, len(gen.Samples))
	for i, s := range gen.Samples {
		res.lateness[i] = s.Lateness
	}
	res.inFlightMax = int(peak.Load())
	return res, nil
}

// closedLoop runs sessions device sessions back to back until the
// deadline; each session owns a slice of the devices and starts its next
// reading when the previous one has returned.
func (l *loader) closedLoop(ctx context.Context, sessions int, d time.Duration) phaseResult {
	return l.closedLoopUntil(ctx, sessions, func() bool { return false }, time.Now().Add(d))
}

// closedLoopUntil is closedLoop that also stops as soon as done reports
// true (checked between readings).
func (l *loader) closedLoopUntil(ctx context.Context, sessions int, done func() bool, deadline time.Time) phaseResult {
	res := phaseResult{inFlightMax: sessions, start: time.Now()}
	perSession := make([][]opRecord, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := s; ctx.Err() == nil && time.Now().Before(deadline) && !done(); k += sessions {
				rec := l.post(ctx, l.order[k%len(l.order)], time.Now())
				if l.untilReplicated && rec.err == nil {
					wctx, cancel := context.WithTimeout(ctx, replicateTimeout)
					rec.err = l.c.hub.wait(wctx, rec.id)
					cancel()
				}
				perSession[s] = append(perSession[s], rec)
			}
		}(s)
	}
	wg.Wait()
	res.end = time.Now()
	for _, ops := range perSession {
		res.ops = append(res.ops, ops...)
	}
	return res
}

// awaitConfirmed keeps a light closed loop going — confirmation needs
// later transactions to approve earlier ones — until every id is
// confirmed on every node or the timeout passes. It reports the ids
// still unconfirmed somewhere.
func (l *loader) awaitConfirmed(ctx context.Context, ids []hashutil.Hash, timeout time.Duration) int {
	pending := append([]hashutil.Hash(nil), ids...)
	var stop atomic.Bool
	deadline := time.Now().Add(timeout)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.closedLoopUntil(ctx, 4, stop.Load, deadline)
	}()
	nodes := l.c.nodes()
	for {
		still := pending[:0]
		for _, id := range pending {
			if !confirmedOn(nodes, id) {
				still = append(still, id)
			}
		}
		pending = still
		if len(pending) == 0 || !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	return len(pending)
}

func confirmedOn(nodes []*fullNode, id hashutil.Hash) bool {
	for _, n := range nodes {
		info, err := n.node.InfoOf(id)
		if err != nil || info.Status != tangle.StatusConfirmed {
			return false
		}
	}
	return true
}

// admittedIDs lists the ids of the readings that were admitted.
func admittedIDs(ops []opRecord) []hashutil.Hash {
	ids := make([]hashutil.Hash, 0, len(ops))
	for i := range ops {
		if ops[i].err == nil {
			ids = append(ids, ops[i].id)
		}
	}
	return ids
}
