// Cold-region membership index: the on-disk half of the tangle's
// hot/cold split (internal/tangle/cold.go). Every transaction ID pruned
// by a local snapshot is appended here; the tangle consults the index
// when an admission check misses both the live vertices and the
// boundary-root set. The index's in-memory footprint is FIXED — a bloom
// filter, allocated with the first run read or written (a node that has
// never pruned pays nothing), plus a tiny run directory — no matter how
// many IDs accumulate over the node's lifetime; that fixed bound is what
// makes pruning actually shrink node memory instead of trading a vertex
// map for an ID map.
//
// File layout: a fixed header followed by runs, each run a sorted batch
// of 32-byte IDs from one snapshot epoch.
//
//	header: magic uint32 = 0xB10CC01D | version uint32 = 1
//	run:    magic uint32 = 0xB10CF05E | count uint32 |
//	        crc32 uint32 (Castagnoli, over epoch+ids) |
//	        epoch int64 (UnixNano, big endian) | count × 32-byte IDs
//
// Lookups test the bloom filter first (no false negatives: a miss is
// definitive); a possible hit binary-searches each run on disk, newest
// first, so false positives cost a few seeks, never a wrong answer. As
// the ID population grows past the filter's design point the false
// positive rate degrades gracefully toward more disk probes — memory
// stays flat, correctness is untouched.
//
// Runs are merged (streamed, deduplicated, constant memory) into one
// sorted run via the same write-temp/fsync/rename pattern as
// Log.Compact once the run count passes a threshold, keeping per-lookup
// probes bounded. Torn tails from a crash mid-append are truncated on
// open, and a failed write or sync poisons the index — same failure
// model as the journal.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
)

const (
	coldMagic   uint32 = 0xB10CC01D
	coldVersion uint32 = 1
	coldHdrSize        = 8
	runMagic    uint32 = 0xB10CF05E
	runHdrSize         = 20
	coldIDSize         = 32
	maxRunCount        = 1 << 28 // sanity bound on a run header's count
	// maxColdRuns triggers a merge: bounds per-lookup disk probes and
	// dedupes re-added boundary roots.
	maxColdRuns = 16
	// coldBloomBits is the fixed bloom filter size (2^21 bits = 256
	// KiB). At 100k cold IDs the false-positive rate is ~1e-3; it
	// degrades toward 1 as the population grows far past that, which
	// costs disk probes, not correctness or memory.
	coldBloomBits = 1 << 21
	// mergeChunkIDs is the per-run read window during a streaming
	// merge (256 IDs = 8 KiB per run, ≤ maxColdRuns+1 runs live).
	mergeChunkIDs = 256
)

// ErrColdPoisoned reports a write against a cold index whose backing
// file failed a write or sync.
var ErrColdPoisoned = errors.New("cold index poisoned by earlier I/O failure")

type coldRun struct {
	off   int64 // file offset of the first ID
	count int
	epoch int64 // UnixNano of the snapshot cutoff
}

// ColdIndex is the durable membership index for pruned transaction IDs.
// It implements tangle.ColdStore. Safe for concurrent use.
type ColdIndex struct {
	mu    sync.Mutex
	fs    chaos.FS
	f     chaos.File
	path  string
	runs  []coldRun
	n     int      // IDs on disk (duplicates counted until merged)
	bytes int64    // file size
	bloom []uint64 // nil until the first run is read or written: nothing is cold
	err   error    // sticky poison
}

// OpenColdIndex opens (creating if needed) the cold index at path on
// fs, scans its runs to rebuild the bloom filter, and truncates any
// torn tail (durably, like the journal's recovery).
func OpenColdIndex(fs chaos.FS, path string) (*ColdIndex, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open cold index: %w", err)
	}
	c := &ColdIndex{fs: fs, f: f, path: path}
	if err := c.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// recover classifies the header, scans runs (building the bloom filter
// and verifying CRCs) and truncates at the first tear.
func (c *ColdIndex) recover() error {
	size, err := c.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("size cold index: %w", err)
	}
	hdr := make([]byte, coldHdrSize)
	fresh := true
	if size >= coldHdrSize {
		if _, err := c.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("seek cold index: %w", err)
		}
		if _, err := io.ReadFull(c.f, hdr); err != nil {
			return fmt.Errorf("read cold header: %w", err)
		}
		fresh = binary.BigEndian.Uint32(hdr[0:4]) != coldMagic ||
			binary.BigEndian.Uint32(hdr[4:8]) != coldVersion
	}
	if fresh {
		// Empty, torn-header or foreign file: start over, durably.
		if err := c.f.Truncate(0); err != nil {
			return fmt.Errorf("reset cold index: %w", err)
		}
		if _, err := c.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("seek cold index: %w", err)
		}
		binary.BigEndian.PutUint32(hdr[0:4], coldMagic)
		binary.BigEndian.PutUint32(hdr[4:8], coldVersion)
		if _, err := c.f.Write(hdr); err != nil {
			return fmt.Errorf("write cold header: %w", err)
		}
		if err := c.f.Sync(); err != nil {
			return fmt.Errorf("sync cold header: %w", err)
		}
		c.bytes = coldHdrSize
		return nil
	}

	valid := int64(coldHdrSize)
	runHdr := make([]byte, runHdrSize)
	buf := make([]byte, mergeChunkIDs*coldIDSize)
	for {
		if _, err := c.f.Seek(valid, io.SeekStart); err != nil {
			return fmt.Errorf("seek run header: %w", err)
		}
		if _, err := io.ReadFull(c.f, runHdr); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // clean end or torn header
			}
			return fmt.Errorf("read run header: %w", err)
		}
		if binary.BigEndian.Uint32(runHdr[0:4]) != runMagic {
			break
		}
		count := binary.BigEndian.Uint32(runHdr[4:8])
		if count == 0 || count > maxRunCount {
			break
		}
		wantCRC := binary.BigEndian.Uint32(runHdr[8:12])
		epoch := int64(binary.BigEndian.Uint64(runHdr[12:20]))
		idsOff := valid + runHdrSize
		remaining := int64(count) * coldIDSize
		crc := crc32.Checksum(runHdr[12:20], castagnoli)
		torn := false
		// Stream the run: verify the CRC and set bloom bits as we go.
		// The bits are harmless if the run turns out torn — bloom
		// over-approximation only costs a disk probe.
		for remaining > 0 {
			chunk := buf
			if remaining < int64(len(chunk)) {
				chunk = chunk[:remaining]
			}
			if _, err := io.ReadFull(c.f, chunk); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					torn = true
					break
				}
				return fmt.Errorf("read run body: %w", err)
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			for i := 0; i+coldIDSize <= len(chunk); i += coldIDSize {
				c.bloomSetBytes(chunk[i : i+coldIDSize])
			}
			remaining -= int64(len(chunk))
		}
		if torn || crc != wantCRC {
			break
		}
		c.runs = append(c.runs, coldRun{off: idsOff, count: int(count), epoch: epoch})
		c.n += int(count)
		valid = idsOff + int64(count)*coldIDSize
	}
	if valid < size {
		if err := c.f.Truncate(valid); err != nil {
			return fmt.Errorf("truncate torn cold tail: %w", err)
		}
		if err := c.f.Sync(); err != nil {
			return fmt.Errorf("sync truncated cold index: %w", err)
		}
	}
	c.bytes = valid
	return nil
}

// bloom hash positions: the IDs are SHA-256 outputs, so four disjoint
// 8-byte windows are already four independent uniform hashes.
func bloomIdx(b []byte) [4]uint32 {
	return [4]uint32{
		uint32(binary.BigEndian.Uint64(b[0:8]) % coldBloomBits),
		uint32(binary.BigEndian.Uint64(b[8:16]) % coldBloomBits),
		uint32(binary.BigEndian.Uint64(b[16:24]) % coldBloomBits),
		uint32(binary.BigEndian.Uint64(b[24:32]) % coldBloomBits),
	}
}

func (c *ColdIndex) bloomSetBytes(b []byte) {
	if c.bloom == nil {
		c.bloom = make([]uint64, coldBloomBits/64)
	}
	for _, i := range bloomIdx(b) {
		c.bloom[i/64] |= 1 << (i % 64)
	}
}

func (c *ColdIndex) bloomMaybe(id hashutil.Hash) bool {
	if c.bloom == nil {
		return false
	}
	for _, i := range bloomIdx(id[:]) {
		if c.bloom[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// Contains reports whether id was ever added: bloom filter first (a
// miss is definitive and touches no disk), then a binary search of each
// run, newest first.
func (c *ColdIndex) Contains(id hashutil.Hash) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return false, ErrClosed
	}
	if !c.bloomMaybe(id) {
		return false, nil
	}
	for i := len(c.runs) - 1; i >= 0; i-- {
		ok, err := c.searchRunLocked(c.runs[i], id)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// searchRunLocked binary-searches one sorted run on disk.
func (c *ColdIndex) searchRunLocked(r coldRun, id hashutil.Hash) (bool, error) {
	var cur hashutil.Hash
	lo, hi := 0, r.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if _, err := c.f.Seek(r.off+int64(mid)*coldIDSize, io.SeekStart); err != nil {
			return false, fmt.Errorf("seek cold run: %w", err)
		}
		if _, err := io.ReadFull(c.f, cur[:]); err != nil {
			return false, fmt.Errorf("read cold run: %w", err)
		}
		switch cmp := cur.Compare(id); {
		case cmp == 0:
			return true, nil
		case cmp < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false, nil
}

// AddBatch durably appends ids as one sorted run stamped with the
// snapshot epoch, then merges runs if the directory has grown past the
// threshold. A failed write or sync poisons the index (reads keep
// working off the previously durable prefix).
func (c *ColdIndex) AddBatch(ids []hashutil.Hash, epoch time.Time) error {
	if len(ids) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return ErrClosed
	}
	if c.err != nil {
		return fmt.Errorf("%w: %v", ErrColdPoisoned, c.err)
	}

	sorted := make([]hashutil.Hash, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })

	buf := make([]byte, runHdrSize+len(sorted)*coldIDSize)
	binary.BigEndian.PutUint32(buf[0:4], runMagic)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(sorted)))
	binary.BigEndian.PutUint64(buf[12:20], uint64(epoch.UnixNano()))
	for i, id := range sorted {
		copy(buf[runHdrSize+i*coldIDSize:], id[:])
	}
	crc := crc32.Checksum(buf[12:20], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[runHdrSize:])
	binary.BigEndian.PutUint32(buf[8:12], crc)

	if _, err := c.f.Seek(c.bytes, io.SeekStart); err != nil {
		c.err = err
		return fmt.Errorf("seek cold end: %w", err)
	}
	if _, err := c.f.Write(buf); err != nil {
		c.err = err
		return fmt.Errorf("append cold run: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		c.err = err
		return fmt.Errorf("sync cold run: %w", err)
	}
	c.runs = append(c.runs, coldRun{
		off:   c.bytes + runHdrSize,
		count: len(sorted),
		epoch: epoch.UnixNano(),
	})
	c.bytes += int64(len(buf))
	c.n += len(sorted)
	for _, id := range sorted {
		c.bloomSetBytes(id[:])
	}
	if len(c.runs) > maxColdRuns {
		if err := c.mergeLocked(); err != nil {
			// The appended run is durable; a failed merge only leaves
			// more runs than we like. Poison writes, keep reads.
			c.err = err
			return nil
		}
	}
	return nil
}

// runCursor streams one sorted run during a merge with a fixed-size
// window, so merging k runs needs k windows of memory, not the runs.
type runCursor struct {
	c         *ColdIndex
	off       int64 // next unread file offset
	remaining int
	buf       []byte
	pos       int // next unread byte in buf[:fill]
	fill      int
}

func (rc *runCursor) refill() error {
	want := mergeChunkIDs * coldIDSize
	if rem := rc.remaining * coldIDSize; rem < want {
		want = rem
	}
	if want == 0 {
		rc.pos, rc.fill = 0, 0
		return nil
	}
	if _, err := rc.c.f.Seek(rc.off, io.SeekStart); err != nil {
		return fmt.Errorf("seek merge run: %w", err)
	}
	if _, err := io.ReadFull(rc.c.f, rc.buf[:want]); err != nil {
		return fmt.Errorf("read merge run: %w", err)
	}
	rc.off += int64(want)
	rc.pos, rc.fill = 0, want
	return nil
}

// head returns the cursor's current ID without consuming it; ok=false
// when the run is exhausted.
func (rc *runCursor) head() (id []byte, ok bool, err error) {
	if rc.remaining == 0 {
		return nil, false, nil
	}
	if rc.pos == rc.fill {
		if err := rc.refill(); err != nil {
			return nil, false, err
		}
	}
	return rc.buf[rc.pos : rc.pos+coldIDSize], true, nil
}

func (rc *runCursor) advance() {
	rc.pos += coldIDSize
	rc.remaining--
}

// mergeLocked streams every run into one sorted, deduplicated run in a
// temp file, syncs it, and renames it over the live path — the same
// crash-safe commit as Log.Compact. Memory use is constant: one window
// per input run, one output buffer, and the rebuilt bloom filter.
func (c *ColdIndex) mergeLocked() error {
	tmpPath := c.path + ".merge"
	tmp, err := c.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("open cold merge: %w", err)
	}
	fail := func(step string, err error) error {
		tmp.Close()
		_ = c.fs.Remove(tmpPath)
		return fmt.Errorf("%s: %w", step, err)
	}

	var maxEpoch int64
	cursors := make([]*runCursor, len(c.runs))
	for i, r := range c.runs {
		if r.epoch > maxEpoch {
			maxEpoch = r.epoch
		}
		cursors[i] = &runCursor{
			c: c, off: r.off, remaining: r.count,
			buf: make([]byte, mergeChunkIDs*coldIDSize),
		}
	}

	// Header + placeholder run header; count and CRC are patched in
	// after the stream (the file is invisible until the rename, so
	// patching is safe).
	hdr := make([]byte, coldHdrSize+runHdrSize)
	binary.BigEndian.PutUint32(hdr[0:4], coldMagic)
	binary.BigEndian.PutUint32(hdr[4:8], coldVersion)
	if _, err := tmp.Write(hdr); err != nil {
		return fail("write cold merge header", err)
	}

	var epochBytes [8]byte
	binary.BigEndian.PutUint64(epochBytes[:], uint64(maxEpoch))
	crc := crc32.Checksum(epochBytes[:], castagnoli)
	merged := 0
	newBloom := make([]uint64, coldBloomBits/64)
	out := make([]byte, 0, mergeChunkIDs*coldIDSize)
	var last hashutil.Hash
	for {
		// Find the smallest head among the (few) cursors.
		var min []byte
		for _, rc := range cursors {
			h, ok, err := rc.head()
			if err != nil {
				return fail("stream cold merge", err)
			}
			if !ok {
				continue
			}
			if min == nil || bytes.Compare(h, min) < 0 {
				min = h
			}
		}
		if min == nil {
			break
		}
		var id hashutil.Hash
		copy(id[:], min)
		// Consume this ID from every cursor holding it (dedupe).
		for _, rc := range cursors {
			for {
				h, ok, err := rc.head()
				if err != nil {
					return fail("stream cold merge", err)
				}
				if !ok || !bytes.Equal(h, id[:]) {
					break
				}
				rc.advance()
			}
		}
		if merged > 0 && id == last {
			continue
		}
		last = id
		merged++
		out = append(out, id[:]...)
		crc = crc32.Update(crc, castagnoli, id[:])
		for _, i := range bloomIdx(id[:]) {
			newBloom[i/64] |= 1 << (i % 64)
		}
		if len(out) == cap(out) {
			if _, err := tmp.Write(out); err != nil {
				return fail("write cold merge run", err)
			}
			out = out[:0]
		}
	}
	if len(out) > 0 {
		if _, err := tmp.Write(out); err != nil {
			return fail("write cold merge run", err)
		}
	}

	// Patch the real run header in and commit.
	run := hdr[coldHdrSize:]
	binary.BigEndian.PutUint32(run[0:4], runMagic)
	binary.BigEndian.PutUint32(run[4:8], uint32(merged))
	binary.BigEndian.PutUint32(run[8:12], crc)
	binary.BigEndian.PutUint64(run[12:20], uint64(maxEpoch))
	if _, err := tmp.Seek(coldHdrSize, io.SeekStart); err != nil {
		return fail("seek cold merge header", err)
	}
	if _, err := tmp.Write(run); err != nil {
		return fail("patch cold merge header", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync cold merge", err)
	}
	if err := tmp.Close(); err != nil {
		_ = c.fs.Remove(tmpPath)
		return fmt.Errorf("close cold merge: %w", err)
	}
	if err := c.fs.Rename(tmpPath, c.path); err != nil {
		_ = c.fs.Remove(tmpPath)
		return fmt.Errorf("commit cold merge: %w", err)
	}

	f, err := c.fs.OpenFile(c.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("reopen merged cold index: %w", err)
	}
	old := c.f
	c.f = f
	old.Close()
	c.runs = []coldRun{{off: coldHdrSize + runHdrSize, count: merged, epoch: maxEpoch}}
	c.n = merged
	c.bytes = coldHdrSize + runHdrSize + int64(merged)*coldIDSize
	c.bloom = newBloom
	return nil
}

// Len returns the number of IDs on disk (duplicates across unmerged
// runs are counted until a merge dedupes them).
func (c *ColdIndex) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Bytes returns the index's file size.
func (c *ColdIndex) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Runs returns the current run count (monitoring/tests).
func (c *ColdIndex) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// Epoch returns the newest snapshot cutoff recorded in any run (zero
// when the index is empty) — how far the cold region extends, used to
// re-establish the tangle's pruning epoch after a restart.
func (c *ColdIndex) Epoch() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max int64
	for _, r := range c.runs {
		if r.epoch > max {
			max = r.epoch
		}
	}
	if max == 0 {
		return time.Time{}
	}
	return time.Unix(0, max)
}

// Healthy reports whether the index is open and unpoisoned.
func (c *ColdIndex) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f != nil && c.err == nil
}

// Close releases the file handle.
func (c *ColdIndex) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
