package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/chaos"
)

// modelDisk is the benchmark's disk model behind the chaos.FS seam: an
// in-memory disk with one write head, a fixed flush latency, and a
// power cycle that keeps only what was synced.
//
// It follows chaos.MemFS in everything the benchmark relies on — Sync
// occupies the disk for the modelled delay and nothing else is served
// meanwhile; written data is lost on reboot unless a Sync covered it;
// handles from before a reboot are dead — but a Sync costs the bytes
// written since the last one, where MemFS.Sync copies the whole file.
// Under a journal that grows by thousands of records a second that copy
// (gigabytes a second of allocation at 200 syncs/s) would make the
// benchmark measure the model instead of the program.
type modelDisk struct {
	mu        sync.Mutex
	files     map[string]*modelFile
	syncDelay time.Duration
	gen       int // power cycles so far; older handles are stale
}

// modelFile holds the process view (data) and the durable view. Only
// data[dirtyFrom:] can differ from durable.
type modelFile struct {
	data      []byte
	durable   []byte
	dirtyFrom int
}

var errStaleHandle = errors.New("model disk: handle predates the reboot")

func newModelDisk() *modelDisk { return &modelDisk{files: make(map[string]*modelFile)} }

var _ chaos.FS = (*modelDisk)(nil)

// setSyncDelay sets how long every later Sync holds the disk.
func (d *modelDisk) setSyncDelay(delay time.Duration) {
	d.mu.Lock()
	d.syncDelay = delay
	d.mu.Unlock()
}

// reboot power-cycles the machine: every file falls back to its last
// synced content and every open handle dies.
func (d *modelDisk) reboot() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.files {
		f.data = append([]byte(nil), f.durable...)
		f.dirtyFrom = len(f.data)
	}
	d.gen++
}

// clone copies the disk as a second machine would find it after this one
// lost power now: durable content only.
func (d *modelDisk) clone() *modelDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := newModelDisk()
	for name, f := range d.files {
		content := append([]byte(nil), f.durable...)
		out.files[name] = &modelFile{data: content, durable: append([]byte(nil), content...), dirtyFrom: len(content)}
	}
	return out
}

func (d *modelDisk) OpenFile(name string, flag int, _ os.FileMode) (chaos.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		f = &modelFile{}
		d.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.truncate(0)
	}
	return &modelHandle{disk: d, file: f, gen: d.gen}, nil
}

// Rename is atomic and durable at once, as on a journalled file system.
func (d *modelDisk) Rename(oldpath, newpath string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(d.files, oldpath)
	d.files[newpath] = f
	return nil
}

func (d *modelDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(d.files, name)
	return nil
}

func (f *modelFile) touch(from int) {
	if from < f.dirtyFrom {
		f.dirtyFrom = from
	}
}

func (f *modelFile) truncate(size int) {
	if size < len(f.data) {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-len(f.data))...)
	}
	f.touch(size)
}

type modelHandle struct {
	disk   *modelDisk
	file   *modelFile
	gen    int
	pos    int64
	closed bool
}

var _ chaos.File = (*modelHandle)(nil)

// check must be called with the disk locked.
func (h *modelHandle) check() error {
	if h.closed {
		return os.ErrClosed
	}
	if h.gen != h.disk.gen {
		return errStaleHandle
	}
	return nil
}

func (h *modelHandle) Read(p []byte) (int, error) {
	h.disk.mu.Lock()
	defer h.disk.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if h.pos >= int64(len(h.file.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.file.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

func (h *modelHandle) Write(p []byte) (int, error) {
	h.disk.mu.Lock()
	defer h.disk.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	f, pos := h.file, int(h.pos)
	if pos > len(f.data) {
		f.truncate(pos)
	}
	f.touch(pos)
	n := copy(f.data[pos:], p)
	f.data = append(f.data, p[n:]...)
	h.pos += int64(len(p))
	return len(p), nil
}

func (h *modelHandle) Seek(offset int64, whence int) (int64, error) {
	h.disk.mu.Lock()
	defer h.disk.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	base := int64(0)
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = h.pos
	case io.SeekEnd:
		base = int64(len(h.file.data))
	default:
		return 0, fmt.Errorf("model disk: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, errors.New("model disk: negative seek")
	}
	h.pos = base + offset
	return h.pos, nil
}

// Sync makes everything written so far durable. The delay is slept with
// the disk locked: a flushing disk serves no other operation.
func (h *modelHandle) Sync() error {
	h.disk.mu.Lock()
	defer h.disk.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if h.disk.syncDelay > 0 {
		time.Sleep(h.disk.syncDelay)
	}
	f := h.file
	from := f.dirtyFrom
	if from > len(f.durable) {
		from = len(f.durable)
	}
	if from > len(f.data) {
		from = len(f.data)
	}
	f.durable = append(f.durable[:from], f.data[from:]...)
	f.dirtyFrom = len(f.data)
	return nil
}

func (h *modelHandle) Truncate(size int64) error {
	h.disk.mu.Lock()
	defer h.disk.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	h.file.truncate(int(size))
	return nil
}

func (h *modelHandle) Close() error {
	h.disk.mu.Lock()
	defer h.disk.mu.Unlock()
	h.closed = true
	return nil
}
