package kernel

import (
	"fmt"
	"sync"

	"hybrid/internal/disk"
	"hybrid/internal/vclock"
)

// FS is a flat filesystem whose files live contiguously on a disk model.
// Data access (the bytes) is immediate; timing (when a request completes)
// is charged by the disk. Files opened through FS are read with AIO-style
// asynchronous requests — the paper's benchmark configuration opens files
// with O_DIRECT, so there is deliberately no page cache here; servers that
// want caching build their own (as the paper's web server does, §5.2).
type FS struct {
	d *disk.Disk
	// mu is a read-write lock: Open/Exists run on every request and only
	// read the table, so lookups on distinct files never serialize;
	// Create (setup-time) takes the write side.
	mu sync.RWMutex
	// nextBlock is the allocation frontier.
	nextBlock int64
	files     map[string]*File
}

// File is an open file handle.
type File struct {
	fs   *FS
	name string
	size int64
	base int64 // first disk block

	mu   sync.Mutex
	data []byte // nil for pattern-backed files
}

// NewFS creates a filesystem on the given disk.
func NewFS(d *disk.Disk) *FS {
	return &FS{d: d, files: make(map[string]*File)}
}

// Disk reports the underlying device.
func (fs *FS) Disk() *disk.Disk { return fs.d }

// Create allocates a file of the given size. If materialize is true the
// contents are stored in memory (writable, reads return stored bytes);
// otherwise the file is pattern-backed: reads return a deterministic byte
// pattern derived from the offset, so benchmark filesets of many gigabytes
// cost no host memory.
func (fs *FS) Create(name string, size int64, materialize bool) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("fs: create %q: negative size", name)
	}
	blocks := (size + disk.BlockSize - 1) / disk.BlockSize
	if blocks == 0 {
		blocks = 1
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("fs: create %q: file exists", name)
	}
	if fs.nextBlock+blocks > fs.d.Geometry().Blocks {
		return nil, fmt.Errorf("fs: create %q: device full", name)
	}
	f := &File{fs: fs, name: name, size: size, base: fs.nextBlock}
	if materialize {
		f.data = make([]byte, size)
	}
	fs.nextBlock += blocks
	fs.files[name] = f
	return f, nil
}

// Open looks up a file by name.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: open %q: no such file", name)
	}
	return f, nil
}

// Size reports the file's length in bytes.
func (f *File) Size() int64 { return f.size }

// Name reports the name the file was created under: the file system's own
// string, which a caller may keep (a cache key) where the name it opened
// the file by is a view of a buffer that will change.
func (f *File) Name() string { return f.name }

// contentsAt fills p with the file's bytes at off, without timing.
func (f *File) contentsAt(p []byte, off int64) int {
	if off >= f.size {
		return 0
	}
	n := len(p)
	if int64(n) > f.size-off {
		n = int(f.size - off)
	}
	if f.data != nil {
		f.mu.Lock()
		copy(p[:n], f.data[off:off+int64(n)])
		f.mu.Unlock()
		return n
	}
	// Pattern-backed: a cheap deterministic function of the absolute
	// offset, so any reader can validate what it got.
	FillPattern(p[:n], f.name, off)
	return n
}

// patternStep is the 64-bit golden-ratio multiplier of the content hash.
const patternStep = 0x9E3779B97F4A7C15

// PatternByte is the deterministic content of pattern-backed files, one
// byte at a time — the spec FillPattern is tested against: the top byte of
// off × patternStep. The name byte is XORed into the hash's low eight bits
// and the high eight are returned, so name never reaches the output and
// every pattern-backed file has the same content (ROADMAP open item 12).
func PatternByte(name string, off int64) byte {
	h := uint64(off) * patternStep
	if len(name) > 0 {
		h ^= uint64(name[int(uint64(off)%uint64(len(name)))])
	}
	return byte(h >> 56)
}

// patternPrefix holds the first 64 KB of every pattern-backed file, so a
// fill inside it is a copy — the O_DIRECT transfer a read stands in for —
// rather than a hash per byte. Every benchmark and figure file fits.
var patternPrefix [64 << 10]byte

func init() { fillPatternLoop(patternPrefix[:], 0) }

// FillPattern sets p[i] to PatternByte(name, off+i) for every i: it
// copies what falls inside patternPrefix and computes the rest. name
// takes no part, for the reason given on PatternByte.
func FillPattern(p []byte, name string, off int64) {
	if off >= 0 && off < int64(len(patternPrefix)) {
		n := copy(p, patternPrefix[off:])
		p, off = p[n:], off+int64(n)
	}
	fillPatternLoop(p, off)
}

// fillPatternLoop carries the hash from byte to byte: one add and one
// shift each.
func fillPatternLoop(p []byte, off int64) {
	h := uint64(off) * patternStep
	for i := range p {
		p[i] = byte(h >> 56)
		h += patternStep
	}
}

// WriteAt stores bytes into a materialized file (immediate, untimed; use
// AIO.Write for the timed path). Pattern-backed files reject writes.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.data == nil {
		return 0, fmt.Errorf("fs: %q is pattern-backed and read-only", f.name)
	}
	if off < 0 || off >= f.size {
		return 0, fmt.Errorf("fs: write %q at %d: out of range", f.name, off)
	}
	n := len(p)
	if int64(n) > f.size-off {
		n = int(f.size - off)
	}
	f.mu.Lock()
	copy(f.data[off:off+int64(n)], p[:n])
	f.mu.Unlock()
	return n, nil
}

// blockRange converts a byte range to disk blocks.
func (f *File) blockRange(off int64, n int) (block int64, count int) {
	first := off / disk.BlockSize
	last := (off + int64(n) - 1) / disk.BlockSize
	return f.base + first, int(last - first + 1)
}

// AIO is an asynchronous disk request record, the paper's sys_aio_read
// at the kernel boundary: its disk.Request by value, whose completions
// are bound at its first submission, so a caller that keeps one record
// and submits it per read (hio's AIO calls) allocates nothing after the
// first. Done receives each request's byte count (0 at EOF) or error on
// the disk's completion context, so it should hand work onward rather
// than compute. A record carries one request at a time, and may be
// submitted again from Done.
type AIO struct {
	Done func(n int, err error)

	req disk.Request
	f   *File
	off int64
	p   []byte // the request's window, clamped to the file
}

// Read submits a read of len(p) bytes of f at off, charging extra service
// time to the device (the NPTL baseline's kernel-thread wakeup, which
// follows every blocking read; 0 for AIO).
func (a *AIO) Read(fs *FS, f *File, off int64, p []byte, extra vclock.Duration) {
	switch {
	case off < 0:
		a.Done(0, fmt.Errorf("fs: read %q at %d: negative offset", f.name, off))
	case off >= f.size || len(p) == 0:
		a.Done(0, nil) // EOF
	default:
		a.submit(fs, f, off, p, false, extra)
	}
}

// Write submits a write of p at off into a materialized file.
func (a *AIO) Write(fs *FS, f *File, off int64, p []byte) {
	switch {
	case f.data == nil:
		a.Done(0, fmt.Errorf("fs: %q is pattern-backed and read-only", f.name))
	case off < 0 || off >= f.size:
		a.Done(0, fmt.Errorf("fs: write %q at %d: out of range", f.name, off))
	default:
		a.submit(fs, f, off, p, true, 0)
	}
}

func (a *AIO) submit(fs *FS, f *File, off int64, p []byte, write bool, extra vclock.Duration) {
	n := len(p)
	if int64(n) > f.size-off {
		n = int(f.size - off)
	}
	if a.req.Done == nil {
		a.req.Done, a.req.Fail = a.complete, a.fail
	}
	a.f, a.off, a.p = f, off, p[:n]
	a.req.Block, a.req.Count = f.blockRange(off, n)
	a.req.Write, a.req.Extra = write, extra
	if err := fs.d.Submit(&a.req); err != nil {
		a.fail(err)
	}
}

// complete moves the bytes and hands the count on. The window is dropped
// first, so an idle record pins no caller's buffer.
func (a *AIO) complete() {
	p := a.p
	a.p = nil
	if a.req.Write {
		a.Done(a.f.WriteAt(p, a.off))
		return
	}
	a.Done(a.f.contentsAt(p, a.off), nil)
}

func (a *AIO) fail(err error) {
	a.p = nil
	a.Done(0, err)
}

// AIORead submits an asynchronous read of len(p) bytes at off; done
// receives the count or the error, as an AIO record's Done does. It
// makes one record per call.
func (fs *FS) AIORead(f *File, off int64, p []byte, done func(n int, err error)) {
	(&AIO{Done: done}).Read(fs, f, off, p, 0)
}
