// Package store provides durable storage for a full node's ledger: an
// append-only, checksummed write-ahead log of canonical transaction
// encodings, replayed in attachment order at startup.
//
// The paper lists "storage limitations" among its open problems (§VIII);
// this package addresses the durability half (a gateway restart must not
// lose the tangle) and pairs with the credit ledger's Prune for the
// growth half.
//
// Segment format (v2): a fixed header followed by records.
//
//	magic      uint32 = 0xB10C5E67
//	version    uint32 = 2
//	generation uint64 (big endian) — incremented by each compaction
//
// Record format (unchanged from v1):
//
//	magic  uint32 = 0xB10C0DE5
//	length uint32 (big endian)   — length of data
//	crc32  uint32 (Castagnoli)   — over data
//	data   []byte                — txn.Encode() bytes
//
// A v1 log (file beginning with a record magic, no segment header) still
// opens — it reads as generation 0 and is upgraded to a v2 segment by the
// first Compact.
//
// Torn tails (a crash mid-append) are detected via magic/length/CRC and
// truncated away on open — and the truncation is synced, so a recovered
// log does not resurrect its tear on the next crash. Everything before
// the tear replays.
//
// Failure semantics: a failed write or sync POISONS the log. Every later
// Append fails with ErrPoisoned until the log is reopened, because after
// a failed fsync the kernel may have dropped the dirty pages — the tail
// is in an unknown state, and appending past it would silently diverge
// from what a post-crash replay will see. A poisoned node must re-open
// (re-replaying the durable prefix) before trusting the journal again.
//
// All file I/O goes through a chaos.FS so the crash-point torture suite
// can script torn writes, fsync errors, and mid-compaction crashes
// against the real code paths. Production callers use chaos.OS().
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

const (
	segMagic      uint32 = 0xB10C5E67
	segVersion    uint32 = 2
	segHeaderSize        = 16

	recordMagic  uint32 = 0xB10C0DE5
	headerSize          = 12
	maxRecordLen        = txn.MaxPayloadSize + 4096 // payload + envelope slack
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecoveryStats describes what Open recovered from disk.
type RecoveryStats struct {
	// Records is the number of intact records replayed.
	Records int
	// Generation is the segment generation (0 for fresh logs; +1 per
	// compaction).
	Generation uint64
	// TornBytes is the size of the torn tail truncated away on open.
	TornBytes int64
}

// Log is an append-only transaction log. Safe for concurrent use:
// concurrent Appends coalesce through the group committer (commit.go)
// so many writers share one fsync.
type Log struct {
	// ioMu serializes file I/O — batch commits and compaction — and is
	// always acquired before mu. mu guards the cheap state below and is
	// never held across a disk operation.
	ioMu sync.Mutex

	mu    sync.Mutex
	fs    chaos.FS
	f     chaos.File
	path  string
	n     int    // records written (including replayed)
	bytes int64  // durable segment size: header + intact records
	gen   uint64 // segment generation
	err   error  // sticky poison; non-nil after a failed write/sync
	stats RecoveryStats

	// Group-commit state (see commit.go).
	maxBatch   int // records one fsync covers at most: DefaultMaxBatch
	batchStats BatchStats
	queue      []queuedRecord
	committing bool      // a committer goroutine is flushing the queue
	idle       sync.Cond // on mu; signalled when the committer exits
	closing    bool      // Close has begun: Enqueue refuses, the queue drains
	// The numbers records are acknowledged by: the last queued; the durable
	// watermark, the last a Sync covered; the last of the batch whose write
	// or Sync failed; and the last whose verdict is in — flushed, failed or
	// refused — past which Await waits on flushed.
	queued, durable, failed, settled uint64
	unflushed                        int       // records queued whose flush has not returned
	flushed                          sync.Cond // on mu; broadcast once per flush
	observe                          Observer
	opened                           time.Time // what queuedRecord.at counts from

	// The committer's own: the batch it flushes and the buffer it frames
	// that batch into, both reused from flush to flush; and l.commit bound
	// once, so that starting a committer allocates no closure.
	batch     []queuedRecord
	frame     []byte
	committer func()
}

// Errors.
var (
	ErrClosed      = errors.New("transaction log closed")
	ErrCorruptLog  = errors.New("transaction log corrupt")
	ErrRecordLarge = errors.New("transaction record exceeds maximum size")
	// ErrPoisoned reports an append against a log whose backing file
	// failed a write or sync. The durable tail is unknown; the log
	// refuses all writes until reopened.
	ErrPoisoned = errors.New("transaction log poisoned by earlier I/O failure")
)

// OpenFS opens (creating if needed) the log at path on fs, replays every
// intact record through apply in order, truncates (and syncs) any torn
// tail, and leaves the log ready for appends. apply errors abort the
// open (a record that no longer applies indicates a foreign or corrupt
// log). It is OpenFSGen with each record built into a transaction of the
// callback's own.
func OpenFS(fs chaos.FS, path string, apply func(*txn.Transaction) error) (*Log, error) {
	if apply == nil {
		return OpenFSGen(fs, path, nil)
	}
	return OpenFSGen(fs, path, func(v txn.View, _ uint64) error {
		return apply(v.Transaction(hashutil.Sum(v.Bytes())))
	})
}

// OpenFSGen is OpenFS for a caller that takes each record as the view of
// its canonical encoding, with a generation-aware callback: gen is the
// segment generation being replayed — 0 for a fresh log, >0 once
// compaction has rewritten the segment. Replay of a compacted
// segment is the one situation where a record's parents may legitimately
// be absent (they sat beyond the snapshot boundary), and callers use gen
// to relax parent resolution exactly then and no wider. Each view is over
// bytes of the record's own, which the caller may keep.
func OpenFSGen(fs chaos.FS, path string, apply func(txn.View, uint64) error) (*Log, error) {
	if apply == nil {
		return openFS(fs, path, 1, nil)
	}
	return openFS(fs, path, 1, func(run []txn.View, gen uint64) error {
		if len(run) == 0 {
			return nil // the end of the journal: nothing a per-record caller holds back
		}
		return apply(run[0], gen)
	})
}

// ReplayRun is how many records OpenFSRuns hands over at a time: enough
// that a caller settling a run's signatures in batches has a batch for
// each of eight cores, few enough that the run it works behind the reader
// is a small share of a journal worth hurrying over.
const ReplayRun = 512

// OpenFSRuns is OpenFSGen for a caller that takes the journal in bulk:
// apply receives the intact records in order, up to ReplayRun at a time,
// each run in a slice of its own that the caller may keep working on
// while the next is read. After the last record — and before a torn tail
// is cut, so that a refusal still leaves the file as it was found — apply
// is called once more with an empty run: a caller working a run behind
// the reader settles what it still holds there.
func OpenFSRuns(fs chaos.FS, path string, apply func(run []txn.View, gen uint64) error) (*Log, error) {
	return openFS(fs, path, ReplayRun, apply)
}

// openFS opens the log and replays it through apply, runLen records at a
// time and then the empty run that ends the journal.
func openFS(fs chaos.FS, path string, runLen int, apply func([]txn.View, uint64) error) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open tx log: %w", err)
	}
	l := &Log{fs: fs, f: f, path: path, maxBatch: DefaultMaxBatch, opened: time.Now()}
	l.idle.L = &l.mu
	l.flushed.L = &l.mu
	l.committer = l.commit

	base, size, err := l.readSegHeader()
	if err != nil {
		f.Close()
		return nil, err
	}
	validLen, count, err := l.replay(base, runLen, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if validLen < size {
		// Cut the torn tail and make the cut durable: without the sync,
		// a crash after appending over the tear could splice old torn
		// bytes into a new record.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sync truncated log: %w", err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("seek log end: %w", err)
	}
	l.n = count
	l.bytes = validLen
	l.stats = RecoveryStats{
		Records:    count,
		Generation: l.gen,
		TornBytes:  size - validLen,
	}
	return l, nil
}

// readSegHeader classifies the file start: a v2 segment header, or
// empty/torn (in which case a fresh v2 header is written and synced).
// A headerless pre-v2 record stream is refused untouched. It returns
// the offset records start at and the current file size.
func (l *Log) readSegHeader() (base int64, size int64, err error) {
	size, err = l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, fmt.Errorf("size tx log: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("seek log start: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	if size >= 4 {
		if _, err := io.ReadFull(l.f, hdr[:4]); err != nil {
			return 0, 0, fmt.Errorf("read segment magic: %w", err)
		}
		switch binary.BigEndian.Uint32(hdr[:4]) {
		case recordMagic:
			// A headerless record stream holds real history; falling
			// through to the garbage-prefix reset below would destroy it.
			return 0, 0, fmt.Errorf("%w: headerless pre-v2 journal", ErrCorruptLog)
		case segMagic:
			if size >= segHeaderSize {
				if _, err := io.ReadFull(l.f, hdr[4:]); err != nil {
					return 0, 0, fmt.Errorf("read segment header: %w", err)
				}
				if v := binary.BigEndian.Uint32(hdr[4:8]); v != segVersion {
					return 0, 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorruptLog, v)
				}
				l.gen = binary.BigEndian.Uint64(hdr[8:16])
				return segHeaderSize, size, nil
			}
			// Torn mid-header: the header write never synced, so no
			// record can have synced either. Start fresh below.
		default:
			// Unrecognized bytes: an unusable tear, truncated away.
		}
	}
	// Empty, torn-header, or garbage-prefix file: write a fresh v2
	// header, durably, before any record lands after it.
	if err := l.f.Truncate(0); err != nil {
		return 0, 0, fmt.Errorf("reset tx log: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("seek log start: %w", err)
	}
	putSegHeader(hdr, 0)
	if _, err := l.f.Write(hdr); err != nil {
		return 0, 0, fmt.Errorf("write segment header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("sync segment header: %w", err)
	}
	l.gen = 0
	return segHeaderSize, segHeaderSize, nil
}

func putSegHeader(b []byte, gen uint64) {
	binary.BigEndian.PutUint32(b[0:4], segMagic)
	binary.BigEndian.PutUint32(b[4:8], segVersion)
	binary.BigEndian.PutUint64(b[8:16], gen)
}

// replayBuffer is what replay reads the segment through: large enough
// that a few hundred records cost one read of the file, where a header
// and a body read apiece cost two each.
const replayBuffer = 64 << 10

// replay reads records from base and hands the intact ones to apply in
// order, runLen at a time, then the empty run. It returns the byte offset
// of the last intact record's end. Whatever ends the read — the clean end
// of the file, a tear, a record that does not decode — the records read
// before it are applied first and ended with the empty run, so apply has
// seen, whole, exactly the prefix a record-at-a-time replay would have
// shown it before stopping there.
func (l *Log) replay(base int64, runLen int, apply func([]txn.View, uint64) error) (validLen int64, count int, err error) {
	if _, err := l.f.Seek(base, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("seek records start: %w", err)
	}
	var (
		reader   = bufio.NewReaderSize(l.f, replayBuffer)
		header   [headerSize]byte
		body     []byte // reused while nothing is applied, so nothing is kept
		run      []txn.View
		runStart = base
		offset   = base
	)
	// flush applies the records read and not yet applied; at the end of
	// the journal, the empty run after them.
	flush := func(end bool) error {
		if len(run) > 0 {
			if err := apply(run, l.gen); err != nil {
				return fmt.Errorf("replay records from %d: %w", runStart, err)
			}
			run, runStart = nil, offset // the caller may have kept the slice
		}
		if end && apply != nil {
			if err := apply(nil, l.gen); err != nil {
				return fmt.Errorf("replay records before %d: %w", offset, err)
			}
		}
		return nil
	}
	// stop ends the replay at the last intact record: a clean end or a tear.
	stop := func() (int64, int, error) {
		if err := flush(true); err != nil {
			return 0, 0, err
		}
		return offset, count, nil
	}
	// fail ends it on an error of the file's own, behind any the records
	// before it raise: they get the empty run too, so that a caller working
	// a run behind has judged every one of them.
	fail := func(err error) (int64, int, error) {
		if ferr := flush(true); ferr != nil {
			err = ferr
		}
		return 0, 0, err
	}
	for {
		if _, err := io.ReadFull(reader, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return stop() // clean end or torn header
			}
			return fail(fmt.Errorf("read record header: %w", err))
		}
		if binary.BigEndian.Uint32(header[0:4]) != recordMagic {
			return stop() // tear or garbage: stop here
		}
		length := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordLen {
			return stop()
		}
		// A record that is applied is read into a buffer of its own, once:
		// the view apply receives is over bytes the caller may keep.
		var data []byte
		if apply == nil {
			if uint32(cap(body)) < length {
				body = make([]byte, length)
			}
			data = body[:length]
		} else {
			data = make([]byte, length)
		}
		if _, err := io.ReadFull(reader, data); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return stop() // torn body
			}
			return fail(fmt.Errorf("read record body: %w", err))
		}
		if crc32.Checksum(data, castagnoli) != binary.BigEndian.Uint32(header[8:12]) {
			return stop() // corrupt record: treat as tear
		}
		v, err := txn.ViewOf(data)
		if err != nil {
			return fail(fmt.Errorf("%w: undecodable record at %d: %v",
				ErrCorruptLog, offset, err))
		}
		offset += headerSize + int64(length)
		count++
		if apply == nil {
			continue
		}
		if run == nil {
			run = make([]txn.View, 0, runLen)
		}
		if run = append(run, v); len(run) == runLen {
			if err := flush(false); err != nil {
				return 0, 0, err
			}
		}
	}
}

// appendRecord appends the framed record of data — header, CRC, the bytes
// — to dst.
func appendRecord(dst, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, recordMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(data, castagnoli))
	return append(dst, data...)
}

// Append durably records a transaction. The record is synced to stable
// storage before Append returns — concurrent Appends ride the same
// group-commit barrier (commit.go), so the fsync cost amortizes over
// however many records queued while the disk was busy. A failed write
// or sync poisons the log: the durable tail is unknown, so every
// subsequent Append fails with ErrPoisoned until the log is reopened.
func (l *Log) Append(t *txn.Transaction) error {
	return l.AppendBatch([][]byte{t.Encode()})
}

// Compact atomically replaces the log's contents with the canonical
// transaction encodings export returns, stamped with the next generation.
// The replacement is framed into one buffer, written to a temp segment in
// one write, synced, then renamed over the live path — a crash at any
// point leaves either the complete old segment or the complete new one.
// On success the log continues appending to the new segment.
//
// export is called inside the log's I/O exclusion, after every flush that
// has returned and before any that has not: a record acknowledged as
// durable before the call is in the caller's state already, so export
// must return it, and every later flush lands in the new segment. A
// record queued but unflushed at that instant is in both; replay skips
// the second copy.
//
// A poisoned log refuses to compact: the caller's in-memory state may
// already have diverged from the durable log, and compaction would make
// that divergence permanent.
func (l *Log) Compact(export func() [][]byte) error {
	// ioMu keeps the rewrite exclusive with in-flight batch commits;
	// appenders may keep enqueueing — the committer blocks on ioMu and
	// commits to the new segment once the rename lands.
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	err := l.refusalLocked()
	gen := l.gen
	l.mu.Unlock()
	if err != nil {
		return err
	}
	encodings := export()
	size := segHeaderSize
	for _, enc := range encodings {
		if len(enc) > maxRecordLen {
			return fmt.Errorf("frame compact record: %w: %d bytes", ErrRecordLarge, len(enc))
		}
		size += headerSize + len(enc)
	}
	segment := make([]byte, segHeaderSize, size)
	putSegHeader(segment, gen+1)
	for _, enc := range encodings {
		segment = appendRecord(segment, enc)
	}

	tmpPath := l.path + ".compact"
	tmp, err := l.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("open compact segment: %w", err)
	}
	fail := func(step string, err error) error {
		tmp.Close()
		_ = l.fs.Remove(tmpPath)
		return fmt.Errorf("%s: %w", step, err)
	}
	if _, err := tmp.Write(segment); err != nil {
		return fail("write compact segment", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync compact segment", err)
	}
	if err := tmp.Close(); err != nil {
		_ = l.fs.Remove(tmpPath)
		return fmt.Errorf("close compact segment: %w", err)
	}
	// The commit point. Before: the old segment is intact. After: the
	// new one is, fully synced.
	if err := l.fs.Rename(tmpPath, l.path); err != nil {
		_ = l.fs.Remove(tmpPath)
		return fmt.Errorf("commit compact segment: %w", err)
	}

	// Swing the live handle onto the new segment. The old handle now
	// points at an unlinked file; appends through it would be lost.
	f, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.mu.Lock()
		l.err = err // committed on disk but no usable handle: fail loudly
		l.mu.Unlock()
		return fmt.Errorf("reopen compacted log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return fmt.Errorf("seek compacted log end: %w", err)
	}
	l.mu.Lock()
	old := l.f
	l.f = f
	l.gen = gen + 1
	l.n = len(encodings)
	l.bytes = int64(len(segment))
	l.mu.Unlock()
	old.Close()
	return nil
}

// Healthy reports whether the log is open and unpoisoned.
func (l *Log) Healthy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f != nil && l.err == nil
}

// Err returns the sticky I/O error that poisoned the log, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Generation returns the current segment generation.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Stats returns what Open recovered from disk.
func (l *Log) Stats() RecoveryStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Len returns the number of records in the log (replayed + appended).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Bytes returns the durable size of the current segment in bytes
// (header plus every committed record) — the journal's disk footprint,
// maintained without a stat call so monitoring can poll it freely.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close flushes what is queued and releases the file handle. Enqueue
// refuses with ErrClosed from the moment Close begins; every record
// already queued — waited for or not — gets its verdict from the
// committer first, so nothing that was enqueued is dropped unflushed.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closing = true
	for l.committing {
		l.idle.Wait()
	}
	l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
