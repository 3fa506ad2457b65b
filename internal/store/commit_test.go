package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// gateFS wraps a chaos.FS and blocks every Sync on a gate channel,
// letting tests hold the committer mid-flush while requests pile up.
type gateFS struct {
	chaos.FS
	gate chan struct{} // each Sync receives once before proceeding
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, gate: g.gate}, nil
}

type gateFile struct {
	chaos.File
	gate chan struct{}
}

func (g *gateFile) Sync() error {
	<-g.gate
	return g.File.Sync()
}

// openGated opens a log on a fresh MemFS whose Syncs block on the
// returned gate. The open itself performs one Sync (fresh segment
// header), which is released here.
func openGated(t *testing.T) (*Log, *chaos.MemFS, chan struct{}) {
	t.Helper()
	gate := make(chan struct{}, 1)
	gate <- struct{}{} // header sync
	mem := chaos.NewMemFS(1)
	l, err := OpenFS(&gateFS{FS: mem, gate: gate}, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	return l, mem, gate
}

// enqueueAwait queues enc as the next record and hands its verdict to
// done: at once when the log refuses it at the door, otherwise once Await
// has it, from a goroutine of its own.
func enqueueAwait(l *Log, enc []byte, done func(error)) {
	seq, err := l.enqueue([][]byte{enc}, 0, true)
	if err != nil {
		done(err)
		return
	}
	go func() { done(l.Await(seq)) }()
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitQueued polls until n requests sit in the committer queue.
func waitQueued(t *testing.T, l *Log, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d queued requests", n), func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.queue) >= n
	})
}

// waitFlushing polls until the committer has taken everything queued
// into a batch — with a gated Sync, until it is held at that batch's
// Sync (or on its way there).
func waitFlushing(t *testing.T, l *Log) {
	t.Helper()
	waitFor(t, "the committer to take its batch", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.committing && len(l.queue) == 0
	})
}

// verdictOf waits for one request's verdict; a request whose verdict
// does not come fails the test instead of hanging it.
func verdictOf(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no verdict", what)
		return nil
	}
}

// TestGroupCommitCoalesces pins the core of the design: requests that
// enqueue while a flush is in flight share the next fsync. The first
// appender's batch is held at its Sync by a gate; five more enqueue;
// releasing the gate twice must commit all six records in exactly two
// fsyncs (1 + 5), with every waiter seeing success.
func TestGroupCommitCoalesces(t *testing.T) {
	l, _, gate := openGated(t)
	defer func() { close(gate); l.Close() }()
	key := mustKey(t)

	const followers = 5
	errsCh := make(chan error, followers+1)
	go func() { errsCh <- l.Append(sampleTx(t, key, "first")) }()
	waitFlushing(t, l)
	for i := 0; i < followers; i++ {
		i := i
		go func() { errsCh <- l.Append(sampleTx(t, key, fmt.Sprintf("f-%d", i))) }()
	}
	waitQueued(t, l, followers)
	gate <- struct{}{} // the first batch of 1
	gate <- struct{}{} // the followers' batch of 5
	for i := 0; i < followers+1; i++ {
		if err := <-errsCh; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	stats := l.BatchStats()
	if stats.Commits != 2 {
		t.Fatalf("commits = %d, want 2 (first alone + coalesced followers)", stats.Commits)
	}
	if stats.Records != followers+1 {
		t.Fatalf("records = %d, want %d", stats.Records, followers+1)
	}
	if stats.Hist[batchBucket(1)] != 1 || stats.Hist[batchBucket(followers)] != 1 {
		t.Fatalf("histogram %v does not show one batch of 1 and one of %d", stats.Hist, followers)
	}
	if l.Len() != followers+1 {
		t.Fatalf("Len = %d, want %d", l.Len(), followers+1)
	}
}

// TestSyncPageIsOneFsyncBehindTheFlushInFlight pins DefaultMaxBatch to a
// catch-up sync page (the node's syncPageSize, 256): a journaling relay
// queues a page as 256 one-record requests, in attach order, while its
// committer holds the disk, and the whole page must ride the next fsync —
// two Syncs in all, where a cap of 64 made it 1 + 4.
func TestSyncPageIsOneFsyncBehindTheFlushInFlight(t *testing.T) {
	const page = 256
	l, _, gate := openGated(t)
	defer func() { close(gate); l.Close() }()
	key := mustKey(t)

	verdicts := make(chan error, page+1)
	done := func(err error) { verdicts <- err }
	enqueueAwait(l, sampleTx(t, key, "in flight").Encode(), done)
	waitFlushing(t, l)
	for i := 0; i < page; i++ {
		enqueueAwait(l, sampleTx(t, key, fmt.Sprintf("page-%d", i)).Encode(), done)
	}
	gate <- struct{}{} // the flush in flight
	gate <- struct{}{} // the page
	for i := 0; i < page+1; i++ {
		if err := verdictOf(t, fmt.Sprintf("record %d", i), verdicts); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if stats := l.BatchStats(); stats.Commits != 2 || stats.Hist[batchBucket(page)] != 1 {
		t.Fatalf("a sync page behind a held flush took %d fsyncs (batches %v), want 2: 1 + the page", stats.Commits, stats.Hist)
	}
}

// TestRequestIsNeverSplitAcrossFlushes: the records of one AppendBatch
// are one request. Queued behind two single records while a flush is
// held, with room for four records a flush, the three-record batch does
// not ride with the singles to fill the flush: it commits alone, after
// them, in a flush of its own.
func TestRequestIsNeverSplitAcrossFlushes(t *testing.T) {
	l, _, gate := openGated(t)
	defer func() { close(gate); l.Close() }()
	key := mustKey(t)
	l.maxBatch = 4

	verdicts := make(chan error, 4)
	done := func(err error) { verdicts <- err }
	enqueueAwait(l, sampleTx(t, key, "in flight").Encode(), done)
	waitFlushing(t, l)
	enqueueAwait(l, sampleTx(t, key, "single 1").Encode(), done)
	enqueueAwait(l, sampleTx(t, key, "single 2").Encode(), done)
	batch := []*txn.Transaction{sampleTx(t, key, "batch 1"), sampleTx(t, key, "batch 2"), sampleTx(t, key, "batch 3")}
	go func() { verdicts <- l.AppendBatch(encodings(batch)) }()
	waitQueued(t, l, 5)
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	for i := 0; i < 4; i++ {
		if err := verdictOf(t, "a request", verdicts); err != nil {
			t.Fatal(err)
		}
	}
	stats := l.BatchStats()
	if stats.Commits != 3 || stats.Hist[batchBucket(1)] != 1 || stats.Hist[batchBucket(2)] != 1 || stats.Hist[batchBucket(3)] != 1 {
		t.Fatalf("%d flushes, batches %v; want 3: the record in flight, the two singles, the three-record request", stats.Commits, stats.Hist)
	}
}

// TestAppendReturnsAtItsOwnSync: under a continuous stream of appenders
// — the queue is never empty when a flush ends — no Append outlives the
// Sync that covered it. Each round queues one more appender behind the
// held flush, releases exactly one Sync, and requires the appender that
// Sync covered to return while the next one's flush is still held. (A
// committer that is itself an appender, flushing for its followers until
// the queue drains, never returns here.)
func TestAppendReturnsAtItsOwnSync(t *testing.T) {
	l, _, gate := openGated(t)
	defer func() { close(gate); l.Close() }()
	key := mustKey(t)

	const rounds = 6
	verdicts := make([]chan error, rounds+1)
	start := func(i int) {
		verdicts[i] = make(chan error, 1)
		tx := sampleTx(t, key, fmt.Sprintf("stream-%d", i))
		go func() { verdicts[i] <- l.Append(tx) }()
	}
	start(0)
	waitFlushing(t, l) // appender 0's batch is held at its Sync
	for i := 0; i < rounds; i++ {
		start(i + 1)
		waitQueued(t, l, 1) // the stream continues behind the held flush
		gate <- struct{}{}  // the Sync covering appender i, and only it
		if err := verdictOf(t, fmt.Sprintf("appender %d after its own Sync", i), verdicts[i]); err != nil {
			t.Fatalf("appender %d: %v", i, err)
		}
		waitFlushing(t, l)
		select {
		case err := <-verdicts[i+1]:
			t.Fatalf("appender %d returned (%v) before the Sync covering it was released", i+1, err)
		default:
		}
	}
}

// TestEnqueueWithoutWaitIsDurableAfterClose: a record enqueued by a
// caller that never waits is flushed by the committer all the same, and
// Close does not return before that flush — nor drop the record.
func TestEnqueueWithoutWaitIsDurableAfterClose(t *testing.T) {
	l, mem, gate := openGated(t)
	key := mustKey(t)
	tx := sampleTx(t, key, "fire-and-forget")

	verdict := make(chan error, 1)
	enqueueAwait(l, tx.Encode(), func(err error) { verdict <- err })
	waitFlushing(t, l)

	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	waitFor(t, "Close to begin", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.closing
	})
	refused := make(chan error, 1)
	enqueueAwait(l, sampleTx(t, key, "late").Encode(), func(err error) { refused <- err })
	if err := <-refused; !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue during Close = %v, want ErrClosed", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with the queued record's Sync still held", err)
	default:
	}

	gate <- struct{}{}
	if err := verdictOf(t, "Close", closed); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := verdictOf(t, "the enqueued record", verdict); err != nil {
		t.Fatalf("enqueued record's verdict: %v", err)
	}

	mem.Reboot() // only what was synced survives
	var recovered []hashutil.Hash
	l2, err := OpenFS(mem, "tx.log", func(got *txn.Transaction) error {
		recovered = append(recovered, got.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recovered) != 1 || recovered[0] != tx.ID() {
		t.Fatalf("recovered %d records after Close + power cut, want exactly the enqueued one", len(recovered))
	}
}

// TestGroupCommitBatchFailureFailsEveryRequest fails one batch's Sync
// with every kind of request at stake: the waiters in the failing batch
// must get the I/O error; a waiter and a no-wait request queued behind
// it must get ErrPoisoned without touching the file; and the log must
// stay stickily poisoned, with nothing left unsynced.
func TestGroupCommitBatchFailureFailsEveryRequest(t *testing.T) {
	l, mem, gate := openGated(t)
	defer func() { close(gate); l.Close() }()
	key := mustKey(t)

	const followers = 4
	l.maxBatch = followers // the failing batch holds the followers and no more
	first := make(chan error, 1)
	go func() { first <- l.Append(sampleTx(t, key, "first")) }()
	waitFlushing(t, l)
	inBatch := make(chan error, followers)
	for i := 0; i < followers; i++ {
		i := i
		go func() { inBatch <- l.Append(sampleTx(t, key, fmt.Sprintf("f-%d", i))) }()
	}
	waitQueued(t, l, followers)
	behind := make(chan error, 2)
	go func() { behind <- l.Append(sampleTx(t, key, "behind-waiting")) }()
	waitQueued(t, l, followers+1)
	enqueueAwait(l, sampleTx(t, key, "behind-no-wait").Encode(), func(err error) { behind <- err })

	gate <- struct{}{} // the first batch of 1 succeeds
	if err := verdictOf(t, "first appender", first); err != nil {
		t.Fatalf("first appender: %v", err)
	}
	waitFor(t, "the follower batch to reach its Sync", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.queue) == 2
	})
	mem.InjectSyncError(nil)
	gate <- struct{}{} // the follower batch hits the injected fault

	for i := 0; i < followers; i++ {
		if err := verdictOf(t, "request in the failing batch", inBatch); err == nil || errors.Is(err, ErrPoisoned) {
			t.Fatalf("request in the failing batch = %v, want the I/O error", err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := verdictOf(t, "request queued behind the failing batch", behind); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("request queued behind the failing batch = %v, want ErrPoisoned", err)
		}
	}
	if l.Healthy() {
		t.Fatal("log still healthy after failed batch sync")
	}
	if err := l.Append(sampleTx(t, key, "after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison = %v, want ErrPoisoned", err)
	}
}

// TestGroupCommitSyncFaultWhileQueued is the satellite scenario: a
// one-shot sync fault fires while concurrent appenders have requests
// queued. Afterwards the machine reboots (dropping the page cache) and
// the log replays: every Append that reported success must be
// recovered — no waiter may have been told "durable" on the strength
// of a sync that never happened.
func TestGroupCommitSyncFaultWhileQueued(t *testing.T) {
	seed := tortureSeed(t)
	for round := 0; round < 8; round++ {
		fs := chaos.NewMemFS(seed + int64(round))
		l, err := OpenFS(fs, "tx.log", nil)
		if err != nil {
			t.Fatal(err)
		}
		key := mustKey(t)

		const writers = 6
		const perWriter = 4
		var (
			okMu sync.Mutex
			ok   = make(map[hashutil.Hash]bool)
		)
		var wg sync.WaitGroup
		var once sync.Once
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					tx := sampleTx(t, key, fmt.Sprintf("r%d-w%d-i%d", round, w, i))
					if i == 1 && w == 0 {
						// Arm the fault mid-flight, with batches queued.
						once.Do(func() { fs.InjectSyncError(nil) })
					}
					if err := l.Append(tx); err == nil {
						okMu.Lock()
						ok[tx.ID()] = true
						okMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		l.Close()

		fs.Reboot()
		recovered := make(map[hashutil.Hash]bool)
		l2, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			recovered[tx.ID()] = true
			return nil
		})
		if err != nil {
			t.Fatalf("seed=%d round=%d: recovery failed: %v", seed, round, err)
		}
		l2.Close()
		for id := range ok {
			if !recovered[id] {
				t.Fatalf("seed=%d round=%d: Append reported success for %s but replay lost it (%d ok, %d recovered)",
					seed, round, id.String()[:8], len(ok), len(recovered))
			}
		}
	}
}

// TestCrashMidBatchConcurrent sweeps the crash point across a
// concurrent batched workload: the disk dies during the k-th durable
// operation while several goroutines append, the machine reboots, and
// the log replays. The invariant is the soak's zero-admitted-loss rule
// at the store layer: a crash mid-batch may tear records that were
// never acknowledged, but every Append that returned nil is recovered.
func TestCrashMidBatchConcurrent(t *testing.T) {
	seed := tortureSeed(t)
	key := mustKey(t)
	const writers = 4
	const perWriter = 5
	for crash := 1; crash <= 36; crash++ {
		fs := chaos.NewMemFS(seed + int64(crash)*101)
		l, err := OpenFS(fs, "tx.log", nil)
		if err != nil {
			t.Fatal(err)
		}
		l.maxBatch = 8
		fs.CrashAfter(crash)

		var (
			okMu sync.Mutex
			ok   = make(map[hashutil.Hash]bool)
		)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					tx := sampleTx(t, key, fmt.Sprintf("c%d-w%d-i%d", crash, w, i))
					if err := l.Append(tx); err == nil {
						okMu.Lock()
						ok[tx.ID()] = true
						okMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		l.Close()
		if !fs.Crashed() {
			continue // workload finished before this crash point
		}
		fs.Reboot()

		recovered := make(map[hashutil.Hash]bool)
		l2, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			recovered[tx.ID()] = true
			return nil
		})
		if err != nil {
			if errors.Is(err, os.ErrNotExist) && len(ok) == 0 {
				continue // crashed before the file existed
			}
			t.Fatalf("seed=%d crash=%d: recovery failed: %v", seed, crash, err)
		}
		l2.Close()
		for id := range ok {
			if !recovered[id] {
				t.Fatalf("seed=%d crash=%d: acknowledged record %s lost by replay (%d ok, %d recovered)",
					seed, crash, id.String()[:8], len(ok), len(recovered))
			}
		}
	}
}

// TestAppendBatchRoundTrip exercises the atomic multi-record append:
// records land in order, share one fsync, and replay together.
func TestAppendBatchRoundTrip(t *testing.T) {
	fs := chaos.NewMemFS(3)
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t)
	var want []hashutil.Hash
	var batch []*txn.Transaction
	for i := 0; i < 5; i++ {
		tx := sampleTx(t, key, fmt.Sprintf("b-%d", i))
		batch = append(batch, tx)
		want = append(want, tx.ID())
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := l.AppendBatch(encodings(batch)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	stats := l.BatchStats()
	if stats.Commits != 1 || stats.Records != 5 {
		t.Fatalf("stats = %+v, want 1 commit of 5 records", stats)
	}
	l.Close()

	var got []hashutil.Hash
	l2, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
		got = append(got, tx.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// TestCrashPointTortureBatched is the group-commit analogue of
// TestCrashPointTorture: a deterministic single-goroutine workload of
// AppendBatch calls (sizes 1, 3, 5) with the crash point enumerated
// over every durable-affecting operation. After each crash the
// recovered log must be an in-order prefix of the record stream, and
// every batch whose AppendBatch returned nil must be fully present — a
// crash between a batch's write and its sync must never admit an
// unsynced record as durable.
func TestCrashPointTortureBatched(t *testing.T) {
	seed := tortureSeed(t)
	key := mustKey(t)
	sizes := []int{1, 3, 5, 2}
	var batches [][]*txn.Transaction
	var stream []hashutil.Hash
	for bi, n := range sizes {
		var b []*txn.Transaction
		for i := 0; i < n; i++ {
			tx := sampleTx(t, key, fmt.Sprintf("tb-%d-%d", bi, i))
			b = append(b, tx)
			stream = append(stream, tx.ID())
		}
		batches = append(batches, b)
	}

	workload := func(fs *chaos.MemFS) (mustHave []hashutil.Hash) {
		l, err := OpenFS(fs, "tx.log", nil)
		if err != nil {
			return nil
		}
		defer l.Close()
		for _, b := range batches {
			if err := l.AppendBatch(encodings(b)); err != nil {
				return mustHave
			}
			for _, tx := range b {
				mustHave = append(mustHave, tx.ID())
			}
		}
		return mustHave
	}

	dry := chaos.NewMemFS(seed)
	if got := workload(dry); len(got) != len(stream) {
		t.Fatalf("dry run committed %d records, want %d", len(got), len(stream))
	}
	total := dry.Ops()
	if total < len(sizes)*2 {
		t.Fatalf("suspiciously few ops: %d", total)
	}

	isPrefix := func(p, s []hashutil.Hash) bool {
		if len(p) > len(s) {
			return false
		}
		for i := range p {
			if p[i] != s[i] {
				return false
			}
		}
		return true
	}

	for crash := 1; crash <= total; crash++ {
		fs := chaos.NewMemFS(seed + int64(crash))
		fs.CrashAfter(crash)
		mustHave := workload(fs)
		if !fs.Crashed() {
			t.Fatalf("seed=%d crash=%d: workload survived its crash point", seed, crash)
		}
		fs.Reboot()

		var recovered []hashutil.Hash
		l, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			recovered = append(recovered, tx.ID())
			return nil
		})
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				if len(mustHave) > 0 {
					t.Fatalf("seed=%d crash=%d: log vanished with %d durable records", seed, crash, len(mustHave))
				}
				continue
			}
			t.Fatalf("seed=%d crash=%d: recovery failed: %v", seed, crash, err)
		}
		l.Close()
		if !isPrefix(recovered, stream) {
			t.Fatalf("seed=%d crash=%d: recovered %d records are not a stream prefix", seed, crash, len(recovered))
		}
		if !isPrefix(mustHave, recovered) {
			t.Fatalf("seed=%d crash=%d: lost acknowledged batch records: recovered %d, %d acknowledged",
				seed, crash, len(recovered), len(mustHave))
		}
	}
}

// TestGroupCommitConcurrentWithCompact runs appenders against a
// compaction that already holds the disk: the compaction is held at its
// segment Sync (so it owns ioMu and the rename has not happened), the
// appenders queue up behind it, and once it is released every one of
// their batches must be routed to the NEW segment — an append written
// through the old, unlinked handle would be acknowledged and lost.
func TestGroupCommitConcurrentWithCompact(t *testing.T) {
	l, mem, gate := openGated(t)
	key := mustKey(t)

	// Seed records that compaction will keep.
	var kept []*txn.Transaction
	for i := 0; i < 3; i++ {
		tx := sampleTx(t, key, fmt.Sprintf("keep-%d", i))
		kept = append(kept, tx)
		gate <- struct{}{}
		if err := l.Append(tx); err != nil {
			t.Fatal(err)
		}
	}

	compacted := make(chan error, 1)
	go func() { compacted <- l.Compact(exactly(kept)) }()
	waitFor(t, "compaction to take the disk", func() bool {
		if l.ioMu.TryLock() {
			l.ioMu.Unlock()
			return false
		}
		return true
	})

	var (
		okMu sync.Mutex
		ok   []hashutil.Hash
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				tx := sampleTx(t, key, fmt.Sprintf("cc-%d-%d", w, i))
				if err := l.Append(tx); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				okMu.Lock()
				ok = append(ok, tx.ID())
				okMu.Unlock()
			}
		}()
	}
	waitQueued(t, l, 4)
	close(gate) // the compaction's Sync, and every Sync after it
	if err := <-compacted; err != nil {
		t.Fatalf("compact: %v", err)
	}
	wg.Wait()
	l.Close()

	recovered := make(map[hashutil.Hash]bool)
	l2, err := OpenFS(mem, "tx.log", func(tx *txn.Transaction) error {
		recovered[tx.ID()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if gen := l2.Generation(); gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	for _, id := range ok {
		if !recovered[id] {
			t.Fatalf("acknowledged append %s lost across concurrent compaction", id.String()[:8])
		}
	}
}

// TestCompactExportsInsideTheIOExclusion: Compact calls export holding
// ioMu — after every flush that has returned, before any other, so a
// record acknowledged before the call is in the caller's state for export
// to return and one flushed after lands in the new segment — and not
// holding mu, so that appenders keep enqueueing meanwhile.
func TestCompactExportsInsideTheIOExclusion(t *testing.T) {
	l, err := OpenFS(chaos.NewMemFS(7), "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tx := sampleTx(t, mustKey(t), "kept")
	calls := 0
	err = l.Compact(func() [][]byte {
		calls++
		if l.ioMu.TryLock() {
			l.ioMu.Unlock()
			t.Error("export called outside the I/O exclusion: a flush can fall between it and the rewrite")
		}
		if !l.mu.TryLock() {
			t.Error("export called with the queue locked")
		} else {
			l.mu.Unlock()
		}
		return [][]byte{tx.Encode()}
	})
	if err != nil || calls != 1 || l.Len() != 1 {
		t.Fatalf("compact: err %v, export called %d times, %d records; want nil, 1, 1", err, calls, l.Len())
	}
}
