package store

import (
	"fmt"

	"github.com/b-iot/biot/internal/txn"
)

// Group commit: the remedy for the one-fsync-per-record write path that
// serialized the whole parallel submission pipeline behind a single
// disk flush. Appenders enqueue their encoded records; a committer
// goroutine flushes the queue with one contiguous write and one Sync
// per batch. Everyone whose record rode in that batch observes the same
// durability barrier: Append (and AppendBatch) return only after the
// Sync covering their bytes succeeded — or with the error that poisoned
// the log.
//
// Appending is two steps, and a caller may take the first without the
// second: Enqueue places a request in the queue, in call order, and
// returns; the request's verdict arrives later through its done
// callback. Append is Enqueue plus waiting for that verdict. A caller
// with work that need not follow the flush (the node's fan-out) does it
// between the two; a caller that promised nobody durability (a relay
// journaling what it was gossiped) never waits at all.
//
// The committer is started on demand and is nobody's appender, so an
// idle log costs nothing and no Append outlives the Sync that covered
// it:
//
//  1. Enqueue locks mu, queues its request, and — if no committer is
//     running — starts one.
//  2. The committer loops: take up to maxBatch records from the queue
//     head, release mu (new requests keep queueing while the disk is
//     busy — that is where batches come from), write the concatenated
//     records, Sync once, and deliver the verdict to every request in
//     the batch.
//  3. It exits when it finds the queue empty.
//
// Failure semantics are unchanged from the per-record path: a failed
// write or Sync poisons the log stickily. Every request in the failing
// batch gets the I/O error; every request still queued behind it gets
// ErrPoisoned; so does every later Enqueue until the log is reopened.
// No request is ever told "durable" for a record the post-crash replay
// cannot recover: success is only reported after Sync returns nil, and
// a batch written-but-not-synced is, at worst, a torn tail the next
// Open truncates away.
//
// File I/O (batch commits, compaction's segment rewrite and handle
// swing) serializes on ioMu, acquired strictly before mu; mu alone
// guards the queue and cheap state, and is never held across a disk
// operation or a done callback.

// DefaultMaxBatch caps how many records one fsync covers: one catch-up
// sync page (the node's syncPageSize). A journaling relay queues a page it
// attaches as that many one-record requests, behind whatever flush holds
// the disk, and the page then costs one fsync. There is no linger: the
// committer flushes what has queued the moment the disk is free, so
// batches form only from what queued during the previous flush, which
// adds no latency when the log is uncontended (DESIGN.md §11).
const DefaultMaxBatch = 256

// batchHistBuckets is the number of batch-size histogram buckets:
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65-128, >128.
const batchHistBuckets = 9

// BatchStats is a snapshot of the group committer's accounting.
type BatchStats struct {
	// Commits is the number of fsyncs the committer issued.
	Commits uint64
	// Records is the number of records those fsyncs made durable.
	Records uint64
	// Hist is the per-fsync batch-size histogram; bucket i counts
	// commits whose record count fell in bucket i (see batchHistBuckets).
	Hist [batchHistBuckets]uint64
}

// batchBucket maps a batch's record count to its histogram bucket.
func batchBucket(n int) int {
	if n <= 2 {
		if n < 1 {
			n = 1
		}
		return n - 1
	}
	b := 2
	for limit := 4; b < batchHistBuckets-1; b++ {
		if n <= limit {
			return b
		}
		limit *= 2
	}
	return batchHistBuckets - 1
}

// commitReq is one enqueued request: its framed bytes, how many records
// they hold, and where its barrier verdict is delivered.
type commitReq struct {
	buf  []byte
	n    int
	done func(error)
}

// BatchStats returns a snapshot of the committer's accounting.
func (l *Log) BatchStats() BatchStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batchStats
}

// takeBatchLocked removes up to maxBatch records' worth of requests
// from the queue head. A single request larger than maxBatch still
// commits alone (a request is atomic at the barrier — it is never
// split). Caller holds mu.
func (l *Log) takeBatchLocked() (batch []*commitReq, records int) {
	cut := 0
	for _, req := range l.queue {
		if cut > 0 && records+req.n > l.maxBatch {
			break
		}
		records += req.n
		cut++
	}
	batch = l.queue[:cut:cut]
	l.queue = l.queue[cut:]
	return batch, records
}

// refusalLocked says why the log takes no request: it is closed (or
// closing), or poisoned. Caller holds mu.
func (l *Log) refusalLocked() error {
	if l.f == nil || l.closing {
		return ErrClosed
	}
	if l.err != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, l.err)
	}
	return nil
}

// Enqueue frames encodings — canonical transaction encodings, which it
// reads and does not keep — as one request: written together, covered by
// the same fsync, never split across batches, and queued behind every
// request enqueued before. It does not wait for the disk. done is called
// exactly once with the request's verdict: nil once the Sync covering
// its records has returned, otherwise why none will. It runs on the
// committer goroutine, or inside Enqueue when the request is refused at
// the door (a closed or poisoned log, an oversized record), and must not
// block: the next flush waits for it. An empty request succeeds at once.
func (l *Log) Enqueue(encodings [][]byte, done func(error)) {
	if len(encodings) == 0 {
		done(nil)
		return
	}
	var buf []byte
	for _, enc := range encodings {
		rec, err := encodeRecord(enc)
		if err != nil {
			done(err)
			return
		}
		if buf == nil {
			buf = rec
		} else {
			buf = append(buf, rec...)
		}
	}
	l.mu.Lock()
	if err := l.refusalLocked(); err != nil {
		l.mu.Unlock()
		done(err)
		return
	}
	l.queue = append(l.queue, &commitReq{buf: buf, n: len(encodings), done: done})
	idle := !l.committing
	l.committing = true
	l.mu.Unlock()
	if idle {
		go l.commit()
	}
}

// commit is the committer goroutine: it flushes the queue batch by batch
// and exits when it finds it empty. Enqueue set l.committing under mu
// before starting it, so every request queued while it runs has its
// verdict before it exits — which is what Close waits for.
func (l *Log) commit() {
	for {
		l.mu.Lock()
		if len(l.queue) == 0 {
			l.committing = false
			l.idle.Broadcast()
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()

		l.ioMu.Lock()
		l.mu.Lock()
		batch, records := l.takeBatchLocked()
		f, poison := l.f, l.err // poisoned already: a compaction lost its handle with these queued
		l.mu.Unlock()

		// One contiguous write, one Sync: the whole batch shares the
		// barrier. A crash in here leaves at most a torn tail — no
		// request has been told anything yet.
		buf := batch[0].buf
		var ioErr error
		if poison == nil {
			if len(batch) > 1 {
				total := 0
				for _, req := range batch {
					total += len(req.buf)
				}
				buf = make([]byte, 0, total)
				for _, req := range batch {
					buf = append(buf, req.buf...)
				}
			}
			if _, ioErr = f.Write(buf); ioErr == nil {
				ioErr = f.Sync()
			}
		}

		l.mu.Lock()
		var refused []*commitReq
		switch {
		case poison != nil:
			refused, batch = append(batch, l.queue...), nil
		case ioErr != nil:
			// Sticky poison: the durable tail is unknown. The failing
			// batch gets the I/O error; everything queued behind it is
			// refused before touching the file.
			poison, l.err = ioErr, ioErr
			refused = l.queue
		default:
			l.n += records
			l.bytes += int64(len(buf))
			l.batchStats.Commits++
			l.batchStats.Records += uint64(records)
			l.batchStats.Hist[batchBucket(records)]++
		}
		if poison != nil {
			l.queue = nil // Enqueue refuses from here on
		}
		l.mu.Unlock()
		l.ioMu.Unlock()

		var verdict error
		if ioErr != nil {
			verdict = fmt.Errorf("append tx batch: %w", ioErr)
		}
		for _, req := range batch {
			req.done(verdict)
		}
		for _, req := range refused {
			req.done(fmt.Errorf("%w: %v", ErrPoisoned, poison))
		}
	}
}

// AppendBatch durably records a group of transactions behind a single
// durability barrier: Enqueue, then wait for the verdict. On success
// every record is durable; on error none should be trusted. An empty
// batch is a no-op.
func (l *Log) AppendBatch(txs []*txn.Transaction) error {
	encodings := make([][]byte, len(txs))
	for i, t := range txs {
		encodings[i] = t.Encode()
	}
	done := make(chan error, 1)
	l.Enqueue(encodings, func(err error) { done <- err })
	return <-done
}
