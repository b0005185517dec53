package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gamelens/internal/persist"
)

// memFS is an in-memory persist.FS. The rollup checkpointer and the tiered
// archive write through it, so the benchmark times their encode, merge and
// bookkeeping work rather than the host's disk, and never writes outside
// its checkout. Sync is a no-op; every other call has the os semantics the
// persist layer relies on (a missing file matches fs.ErrNotExist).
//
// The figures therefore leave out the write, rename and fsync system
// calls production makes even on tmpfs, and the partition files live in
// the Go heap, which raises the collector's goal: the report tier is
// measured doing somewhat less work than it does on a real filesystem.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	seq   int
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

// clone returns a copy sharing file contents, which are never written in
// place.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &memFS{files: make(map[string][]byte, len(m.files)), seq: m.seq}
	for name, b := range m.files {
		c.files[name] = b
	}
	return c
}

// memFile is a file being written; Close publishes its bytes.
type memFile struct {
	fs   *memFS
	name string
	buf  bytes.Buffer
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *memFile) Sync() error                 { return nil }
func (f *memFile) Name() string                { return f.name }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	f.fs.files[f.name] = f.buf.Bytes()
	f.fs.mu.Unlock()
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (persist.File, error) {
	m.mu.Lock()
	m.seq++
	name := filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprint(m.seq), 1))
	m.files[name] = nil
	m.mu.Unlock()
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir(string) error  { return nil }
func (m *memFS) MkdirAll(string) error { return nil }

// written sums the bytes of the files base (nil for none) does not hold
// unchanged, so that state measurements can leave out what stands in for
// the disk.
func (m *memFS) written(base *memFS) int64 {
	var kept map[string][]byte
	if base != nil {
		base.mu.Lock()
		kept = base.files
		defer base.mu.Unlock()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for name, b := range m.files {
		if old, ok := kept[name]; !ok || len(old) != len(b) || (len(b) > 0 && &old[0] != &b[0]) {
			n += int64(len(b))
		}
	}
	return n
}

// bytesUnder sums the sizes of the files in dir: the archive's footprint.
func (m *memFS) bytesUnder(dir string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for name, b := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			n += int64(len(b))
		}
	}
	return n
}
