package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// MemFS is an in-memory filesystem with an explicit durability model,
// built for crash-point torture tests:
//
//   - Every file carries two views: the *process* view (what reads and
//     the writing process observe — the page cache) and the *durable*
//     view (what survives a crash — the platter). Writes and truncates
//     mutate the process view and queue as pending operations; Sync
//     promotes everything pending to durable.
//   - Durability-affecting operations (create, write, sync, truncate,
//     rename, remove) are counted. CrashAfter(n) makes the n-th
//     subsequent operation the crash point: the disk dies *during*
//     that operation. Pending-but-unsynced operations survive the
//     crash only as a seed-chosen prefix — a write torn mid-record
//     falls out of the model naturally.
//   - Rename is modelled as atomic and immediately durable (the
//     journalled-metadata behaviour write-temp/fsync/rename relies
//     on); enumeration of crash points immediately before and after
//     the rename covers the old-file and new-file outcomes.
//
// After a crash every operation — through old handles or new ones —
// fails with ErrCrashed until Reboot, which applies the crash rule and
// reopens the disk as a rebooted machine would see it. Handles from
// before the reboot fail with ErrStaleHandle.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	rng     *rand.Rand
	gen     int // reboot generation; handles from older generations are dead
	ops     int // durable-affecting operations performed
	crashAt int // 1-based op index that crashes the disk; 0 = never
	crashed bool

	syncErr   error         // one-shot injected Sync failure
	writeErr  error         // one-shot injected Write failure
	syncDelay time.Duration // modelled fsync latency; 0 = instant
}

// memFile is one file: its durable bytes plus the pending (unsynced)
// operations that produce the process view when replayed on top.
type memFile struct {
	durable []byte
	data    []byte      // process view: durable with pending applied
	pending []pendingOp // in write order, cleared by Sync
}

type pendingOp struct {
	// A write op carries data at off; a resize op has data nil and
	// size >= 0.
	off  int64
	data []byte
	size int64 // valid when data == nil
}

// NewMemFS creates an empty in-memory disk. The seed drives every
// nondeterministic choice (torn-write lengths, pending-op survival),
// so identical scripts replay identically.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// CrashAfter arms the crash point: the n-th durable-affecting
// operation from now (1-based) crashes the disk mid-operation. n <= 0
// disarms.
func (fs *MemFS) CrashAfter(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n <= 0 {
		fs.crashAt = 0
		return
	}
	fs.crashAt = fs.ops + n
}

// Ops returns the number of durable-affecting operations performed.
// Torture tests run a workload once fault-free to learn the op count,
// then enumerate CrashAfter(1..Ops()).
func (fs *MemFS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Crashed reports whether the disk is down.
func (fs *MemFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// SetSyncDelay models a disk with a fixed flush latency: every
// subsequent Sync occupies the disk for d before the data is durable,
// and the disk serves nothing else meanwhile — fsyncs against one
// MemFS serialize, exactly like a single physical write head. The
// group-commit journal amortizes the delay across a batch, so with
// concurrent writers a deployment's throughput becomes
// batch-size/delay per disk: the knob that lets benchmarks model a
// storage-bound gateway on a machine with any core count.
func (fs *MemFS) SetSyncDelay(d time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncDelay = d
}

// InjectSyncError makes the next Sync on any file fail with err
// (ErrInjectedFault when nil) without promoting pending data. The
// fault is one-shot: the disk "recovers" afterwards — it is the
// caller's contract (store poisoning) that must keep failing.
func (fs *MemFS) InjectSyncError(err error) {
	if err == nil {
		err = ErrInjectedFault
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncErr = err
}

// InjectWriteError makes the next Write on any file fail with err
// (ErrInjectedFault when nil) after applying a seed-chosen prefix — a
// short write.
func (fs *MemFS) InjectWriteError(err error) {
	if err == nil {
		err = ErrInjectedFault
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeErr = err
}

// Reboot applies the crash rule — durable state plus a seed-chosen
// prefix of each file's pending operations — and brings the disk back
// up. Handles from before the reboot are dead. Reboot on a healthy
// disk models a clean power cycle of the machine with a dirty page
// cache: the same pending-loss rule applies. Files draw their cuts from
// the seed in name order, so the same script leaves the same bytes.
func (fs *MemFS) Reboot() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fs.files[name].applyCrash(fs.rng)
	}
	fs.crashed = false
	fs.crashAt = 0
	fs.gen++
}

// applyCrash reduces the file to durable content plus a surviving
// prefix of pending ops; the op on the survival boundary, if a write,
// may itself apply torn.
func (f *memFile) applyCrash(rng *rand.Rand) {
	n := len(f.pending)
	post := append([]byte(nil), f.durable...)
	if n > 0 {
		cut := rng.Intn(n + 1) // pending[:cut] fully survive
		for _, op := range f.pending[:cut] {
			post = op.apply(post)
		}
		if cut < n {
			if op := f.pending[cut]; op.data != nil && len(op.data) > 0 {
				keep := rng.Intn(len(op.data) + 1)
				post = pendingOp{off: op.off, data: op.data[:keep]}.apply(post)
			}
		}
	}
	f.durable = post
	f.data = append([]byte(nil), post...)
	f.pending = nil
}

func (op pendingOp) apply(b []byte) []byte {
	if op.data == nil { // resize
		if int64(len(b)) > op.size {
			return b[:op.size]
		}
		return append(b, make([]byte, op.size-int64(len(b)))...)
	}
	end := op.off + int64(len(op.data))
	if int64(len(b)) < end {
		b = append(b, make([]byte, end-int64(len(b)))...)
	}
	copy(b[op.off:end], op.data)
	return b
}

// Clone deep-copies the disk (process and durable views, not the
// fault script). Benchmarks use it to replay recovery from the same
// image repeatedly.
func (fs *MemFS) Clone() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := NewMemFS(fs.rng.Int63())
	for name, f := range fs.files {
		out.files[name] = &memFile{
			durable: append([]byte(nil), f.durable...),
			data:    append([]byte(nil), f.data...),
			pending: append([]pendingOp(nil), f.pending...),
		}
	}
	return out
}

// ReadFile returns the process view of a file.
func (fs *MemFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// WriteFile replaces a file's content, durably (test setup helper —
// bypasses op counting and the crash model).
func (fs *MemFS) WriteFile(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = &memFile{
		durable: append([]byte(nil), data...),
		data:    append([]byte(nil), data...),
	}
}

// Files lists file names (sorted).
func (fs *MemFS) Files() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// countOp advances the op counter and triggers the armed crash point.
// It reports whether the current operation is the one the disk dies
// during (the op applies torn, then everything fails).
func (fs *MemFS) countOp() (crashing bool, err error) {
	if fs.crashed {
		return false, ErrCrashed
	}
	fs.ops++
	if fs.crashAt > 0 && fs.ops >= fs.crashAt {
		fs.crashed = true
		return true, nil
	}
	return false, nil
}

var _ FS = (*MemFS)(nil)

// OpenFile implements FS.
func (fs *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, exists := fs.files[name]
	if !exists {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		// Creating the directory entry is a durable-affecting op.
		crashing, err := fs.countOp()
		if err != nil {
			return nil, err
		}
		if crashing {
			return nil, ErrCrashed
		}
		f = &memFile{}
		fs.files[name] = f
	}
	h := &memHandle{fs: fs, f: f, name: name, gen: fs.gen}
	if flag&os.O_TRUNC != 0 && len(f.data) > 0 {
		if err := h.truncateLocked(0); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Rename implements FS: atomic and immediately durable (see type doc).
func (fs *MemFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	crashing, err := fs.countOp()
	if err != nil {
		return err
	}
	if crashing {
		return ErrCrashed // crash before the rename applied
	}
	f, ok := fs.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(fs.files, oldpath)
	fs.files[newpath] = f
	return nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	crashing, err := fs.countOp()
	if err != nil {
		return err
	}
	if crashing {
		return ErrCrashed
	}
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

// memHandle is one open descriptor: a position over a memFile.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	name   string
	gen    int
	pos    int64
	closed bool
}

var _ File = (*memHandle)(nil)

func (h *memHandle) check() error {
	if h.closed {
		return os.ErrClosed
	}
	if h.gen != h.fs.gen {
		return ErrStaleHandle
	}
	return nil
}

// Read implements io.Reader over the process view.
func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.pos >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

// Write implements io.Writer at the current position; the bytes are
// pending until Sync.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	crashing, err := h.fs.countOp()
	if err != nil {
		return 0, err
	}
	if crashing {
		// The disk dies mid-write: a seed-chosen prefix lands pending
		// (it may yet survive the crash — or not).
		keep := 0
		if len(p) > 0 {
			keep = h.fs.rng.Intn(len(p) + 1)
		}
		h.writeLocked(p[:keep])
		return keep, ErrCrashed
	}
	if werr := h.fs.writeErr; werr != nil {
		h.fs.writeErr = nil
		keep := 0
		if len(p) > 0 {
			keep = h.fs.rng.Intn(len(p)) // strictly short
		}
		h.writeLocked(p[:keep])
		return keep, werr
	}
	h.writeLocked(p)
	return len(p), nil
}

func (h *memHandle) writeLocked(p []byte) {
	if len(p) == 0 {
		return
	}
	op := pendingOp{off: h.pos, data: append([]byte(nil), p...)}
	h.f.pending = append(h.f.pending, op)
	h.f.data = op.apply(h.f.data)
	h.pos += int64(len(p))
}

// Seek implements io.Seeker.
func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = h.pos
	case io.SeekEnd:
		base = int64(len(h.f.data))
	default:
		return 0, fmt.Errorf("memfs: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("memfs: negative seek")
	}
	h.pos = base + offset
	return h.pos, nil
}

// Sync promotes every pending operation to durable, in order.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	crashing, err := h.fs.countOp()
	if err != nil {
		return err
	}
	if crashing {
		return ErrCrashed // died before the flush completed
	}
	if serr := h.fs.syncErr; serr != nil {
		h.fs.syncErr = nil
		return serr
	}
	if d := h.fs.syncDelay; d > 0 {
		// Deliberately slept under fs.mu: a flushing disk serves no
		// other operation, so concurrent syncs (and writes) queue
		// behind the head just as they would on hardware.
		time.Sleep(d)
	}
	// Replaying the pending ops on durable costs what they wrote, not the
	// file's size. durable owns its array (applyCrash, WriteFile and Clone
	// copy), so growing it in place never reaches data or a clone.
	for _, op := range h.f.pending {
		h.f.durable = op.apply(h.f.durable)
	}
	h.f.pending = nil
	return nil
}

// Truncate resizes the process view; pending until Sync.
func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	return h.truncateLocked(size)
}

func (h *memHandle) truncateLocked(size int64) error {
	crashing, err := h.fs.countOp()
	if err != nil {
		return err
	}
	if crashing {
		return ErrCrashed
	}
	if size < 0 {
		return fmt.Errorf("memfs: negative truncate")
	}
	op := pendingOp{size: size}
	h.f.pending = append(h.f.pending, op)
	h.f.data = op.apply(h.f.data)
	return nil
}

// Close implements io.Closer. Pending data stays pending: close is not
// a sync.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}
