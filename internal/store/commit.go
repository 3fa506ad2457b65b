package store

import (
	"fmt"
	"time"
)

// Group commit: the remedy for the one-fsync-per-record write path that
// serialized the whole parallel submission pipeline behind a single
// disk flush. Appenders queue their records; a committer goroutine
// flushes the queue with one contiguous write and one Sync per batch, and
// everyone whose record rode in that batch observes the same durability
// barrier.
//
// A record is queued as the caller's own bytes and a number the caller
// gives it — the node's attach sequence — that grows from record to
// record. Nothing is copied or allocated per record: the committer frames
// each batch (header, CRC, bytes) into one buffer it keeps and reuses, and
// the queue holds the caller's slices until their flush has returned, so
// they must not change meanwhile (a ledger's encodings never do; nor may a
// chaos.File keep the buffer it was handed to Write, which io.Writer
// forbids). Acknowledgement is one number, the durable watermark: after a
// Sync returns nil, the committer advances it to the number of the last
// record that Sync covered and wakes every waiter once.
//
// Appending is two steps, and a caller may take the first without the
// second: Enqueue places a record in the queue, in call order, and
// returns; Await waits for the flush that covers a given number. Append
// and AppendBatch are both. A caller with work that need not follow the
// flush (the node's fan-out) does it between the two; a caller that
// promised nobody durability (a relay journaling what it was gossiped)
// waits only when too much is queued.
//
// The committer is started on demand and is nobody's appender, so an
// idle log costs nothing and no Await outlives the Sync that covered its
// record:
//
//  1. Enqueue locks mu, queues its record, and — if no committer is
//     running — starts one.
//  2. The committer loops: take up to maxBatch records from the queue
//     head, release mu (new records keep queueing while the disk is busy
//     — that is where batches come from), frame and write the batch,
//     Sync once, advance the watermark, and wake the waiters.
//  3. It exits when it finds the queue empty.
//
// A request of several records (AppendBatch) is queued as consecutive
// records, each but the last marked as continued, and is never split
// across batches.
//
// Failure semantics are unchanged from the per-record path: a failed
// write or Sync poisons the log stickily. Waiters on the failing batch
// get the I/O error; every record still queued behind it is refused with
// ErrPoisoned; so is every later Enqueue until the log is reopened. The
// watermark never passes a record the post-crash replay cannot recover:
// it moves only after Sync returns nil, and a batch written-but-not-synced
// is, at worst, a torn tail the next Open truncates away.
//
// File I/O (batch commits, compaction's segment rewrite and handle
// swing) serializes on ioMu, acquired strictly before mu; mu alone
// guards the queue and the watermark, and is never held across a disk
// operation or an observer call.

// DefaultMaxBatch caps how many records one fsync covers: one catch-up
// sync page (the node's syncPageSize). A journaling relay queues a page it
// attaches as that many records, behind whatever flush holds the disk, and
// the page then costs one fsync. There is no linger: the committer flushes
// what has queued the moment the disk is free, so batches form only from
// what queued during the previous flush, which adds no latency when the log
// is uncontended (DESIGN.md §11).
const DefaultMaxBatch = 256

// maxKeptFrame bounds the write buffer the committer keeps between
// flushes: a batch that needed more (large payloads) frames into a buffer
// the next one does not inherit.
const maxKeptFrame = 1 << 20

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

// queuedRecord is one record waiting for its flush: the caller's
// encoding, kept as it is, its number, when it was queued, and whether the
// record after it belongs to the same request.
type queuedRecord struct {
	enc  []byte
	seq  uint64
	at   time.Duration // since the log opened
	more bool
}

// Observer is told, once per record given to Enqueue or AppendBatch, how
// long the record waited for its verdict and what the verdict was: nil
// once a Sync covered it, otherwise why none will. It runs on the
// committer goroutine after the flush, before the waiters wake, or inside
// Enqueue when the record is refused at the door, and must not block.
type Observer func(wait time.Duration, err error)

// Observe installs the log's observer; nil removes it.
func (l *Log) Observe(o Observer) {
	l.mu.Lock()
	l.observe = o
	l.mu.Unlock()
}

// BatchStats returns a snapshot of the committer's accounting.
func (l *Log) BatchStats() BatchStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batchStats
}

// Unflushed returns how many records are queued whose flush has not
// returned — the backlog a caller that does not wait lets build up.
func (l *Log) Unflushed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unflushed
}

// takeBatchLocked moves up to maxBatch records' worth of whole requests
// from the queue head into the committer's batch. A single request larger
// than maxBatch still commits alone (a request is atomic at the barrier —
// it is never split). Caller holds mu.
func (l *Log) takeBatchLocked() []queuedRecord {
	cut := 0
	for cut < len(l.queue) {
		end := cut + 1
		for l.queue[end-1].more {
			end++
		}
		if cut > 0 && end > l.maxBatch {
			break
		}
		cut = end
	}
	l.batch = append(l.batch[:0], l.queue[:cut]...)
	rest := copy(l.queue, l.queue[cut:])
	clear(l.queue[rest:])
	l.queue = l.queue[:rest]
	return l.batch
}

// refusalLocked says why the log takes no record: it is closed (or
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

// Enqueue queues enc — a canonical transaction encoding, which the log
// keeps, unread and uncopied, until the flush covering it has returned —
// as the record numbered seq. Numbers start at 1 and must grow from record
// to record; Await(seq) waits for the flush that covers it. Enqueue does
// not wait for the disk. It returns an error only for a record refused at
// the door: a closed or poisoned log, an oversized record, or a number not
// above the last one queued.
func (l *Log) Enqueue(enc []byte, seq uint64) error {
	_, err := l.enqueue([][]byte{enc}, seq, false)
	return err
}

// enqueue queues encodings as one request numbered from first, or — with
// numberOn — from one past the last number queued, and returns the last
// number.
func (l *Log) enqueue(encodings [][]byte, first uint64, numberOn bool) (last uint64, err error) {
	at := time.Since(l.opened)
	l.mu.Lock()
	err = l.refusalLocked()
	if numberOn {
		first = l.queued + 1
	}
	if err == nil && first <= l.queued {
		err = fmt.Errorf("record %d queued after record %d", first, l.queued)
	}
	for _, enc := range encodings {
		if err == nil && len(enc) > maxRecordLen {
			err = fmt.Errorf("%w: %d bytes", ErrRecordLarge, len(enc))
		}
	}
	if err != nil {
		observe := l.observe
		l.mu.Unlock()
		if observe != nil {
			for range encodings {
				observe(0, err)
			}
		}
		return 0, err
	}
	last = first + uint64(len(encodings)) - 1
	for i, enc := range encodings {
		l.queue = append(l.queue, queuedRecord{enc: enc, seq: first + uint64(i), at: at, more: i < len(encodings)-1})
	}
	l.queued = last
	l.unflushed += len(encodings)
	idle := !l.committing
	l.committing = true
	l.mu.Unlock()
	if idle {
		go l.committer()
	}
	return last, nil
}

// Await blocks until the flush covering the record numbered seq has
// returned, and reports its verdict: nil once a Sync covered the record,
// the I/O error when its own flush failed, ErrPoisoned when it was refused
// behind a failed one. A number no record was queued under on this log
// returns nil at once: there is nothing of it to wait for.
func (l *Log) Await(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for seq > l.settled && seq <= l.queued {
		l.flushed.Wait()
	}
	switch {
	case seq <= l.durable || seq > l.queued:
		return nil
	case seq <= l.failed:
		return fmt.Errorf("append tx batch: %w", l.err)
	}
	return fmt.Errorf("%w: %v", ErrPoisoned, l.err)
}

// commit is the committer goroutine: it flushes the queue batch by batch
// and exits when it finds it empty. enqueue set l.committing under mu
// before starting it, so every record queued while it runs has its
// verdict before it exits — which is what Close waits for.
func (l *Log) commit() {
	l.mu.Lock()
	for len(l.queue) > 0 {
		l.mu.Unlock()

		l.ioMu.Lock()
		l.mu.Lock()
		batch := l.takeBatchLocked()
		f, poison := l.f, l.err // poisoned already: a compaction lost its handle with these queued
		l.mu.Unlock()

		// One contiguous write, one Sync: the whole batch shares the
		// barrier. A crash in here leaves at most a torn tail — the
		// watermark has not moved.
		frame := l.frame[:0]
		var ioErr error
		if poison == nil {
			for _, r := range batch {
				frame = appendRecord(frame, r.enc)
			}
			if _, ioErr = f.Write(frame); ioErr == nil {
				ioErr = f.Sync()
			}
			if cap(frame) <= maxKeptFrame {
				l.frame = frame
			} else {
				l.frame = nil
			}
		}

		l.mu.Lock()
		var refused []queuedRecord
		switch {
		case poison != nil:
			refused, batch = append(batch, l.queue...), nil
		case ioErr != nil:
			// Sticky poison: the durable tail is unknown. The failing
			// batch gets the I/O error; everything queued behind it is
			// refused before touching the file.
			poison, l.err = ioErr, ioErr
			l.failed = batch[len(batch)-1].seq
			refused = l.queue
		default:
			l.durable = batch[len(batch)-1].seq
			l.n += len(batch)
			l.bytes += int64(len(frame))
			l.batchStats.Commits++
			l.batchStats.Records += uint64(len(batch))
			l.batchStats.Hist[batchBucket(len(batch))]++
		}
		if poison != nil {
			l.queue = nil // Enqueue refuses from here on
		}
		settled := l.durable
		if poison != nil {
			settled = l.queued // every record queued has its verdict
		}
		l.unflushed -= len(batch) + len(refused)
		observe := l.observe
		l.mu.Unlock()
		l.ioMu.Unlock()

		// Every record's verdict is observed before any waiter is woken by
		// it, so a caller that has seen its own record settle sees it
		// counted.
		if observe != nil {
			now := time.Since(l.opened)
			var verdict error
			if ioErr != nil {
				verdict = fmt.Errorf("append tx batch: %w", ioErr)
			}
			for _, r := range batch {
				observe(now-r.at, verdict)
			}
			if len(refused) > 0 {
				verdict = fmt.Errorf("%w: %v", ErrPoisoned, poison)
			}
			for _, r := range refused {
				observe(now-r.at, verdict)
			}
		}
		clear(batch) // the records' bytes are the caller's again
		clear(refused)

		l.mu.Lock()
		l.settled = max(l.settled, settled)
		l.flushed.Broadcast()
	}
	l.committing = false
	l.idle.Broadcast()
	l.mu.Unlock()
}

// AppendBatch durably records a group of canonical transaction encodings
// behind a single durability barrier: one request, numbered on from the
// last record queued, then Await for its last record. The log keeps the
// slices, uncopied, until that flush has returned. On success every
// record is durable; on error none should be trusted. An empty batch is a
// no-op.
func (l *Log) AppendBatch(encodings [][]byte) error {
	if len(encodings) == 0 {
		return nil
	}
	last, err := l.enqueue(encodings, 0, true)
	if err != nil {
		return err
	}
	return l.Await(last)
}
