// Package delayfs is the benchmark's disk: a wal.FS over the real
// filesystem whose File.Sync sleeps a fixed, stated delay instead of
// issuing an fsync. Shared-sandbox disks make a real fsync cost anything
// from 50 µs to 50 ms run to run, which would bury the journal's own cost;
// a fixed delay keeps the durable workload repeatable while still charging
// every sync the way a fast SSD would. Everything else (open, write,
// rename, remove) is the real thing, so the journal files it leaves behind
// are a genuine crash image.
//
// The FS also counts what the journal asks of it — writes, syncs, bytes,
// snapshot cuts — which is where the benchmark's wal.fs_* metrics come
// from, and reports each write and sync to an optional Hook so a traced
// run can record spans at the seam.
package delayfs

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firmament/internal/wal"
)

// DefaultSyncDelay is the injected fsync cost: roughly one flush on a
// datacenter NVMe device. BENCHMARK.json and bench/README.md state it.
const DefaultSyncDelay = 200 * time.Microsecond

// Op names the operations reported to the Hook.
type Op uint8

const (
	OpWrite Op = iota
	OpSync
)

func (o Op) String() string {
	if o == OpSync {
		return "sync"
	}
	return "write"
}

// Counts is a point-in-time copy of the FS counters.
type Counts struct {
	Writes int64 // File.Write calls
	Syncs  int64 // File.Sync calls (each slept SyncDelay)
	Bytes  int64 // bytes handed to File.Write
}

// FS implements wal.FS. The zero value is not usable; call New.
type FS struct {
	syncDelay time.Duration

	// Hook, when non-nil, observes every write and sync after it
	// completes. Set it before the FS is used; it is called from whichever
	// goroutine performed the operation.
	Hook func(op Op, path string, start time.Time, took time.Duration, bytes int)

	writes atomic.Int64
	syncs  atomic.Int64
	bytes  atomic.Int64

	mu        sync.Mutex
	snapStart map[string]time.Time // snapshot temp file → creation time
	snapshots []time.Duration      // create → rename, one per published snapshot
}

// New returns an FS whose syncs cost syncDelay.
func New(syncDelay time.Duration) *FS {
	return &FS{syncDelay: syncDelay, snapStart: make(map[string]time.Time)}
}

// SyncDelay returns the injected per-sync delay.
func (f *FS) SyncDelay() time.Duration { return f.syncDelay }

// Counts returns the operation counters.
func (f *FS) Counts() Counts {
	return Counts{Writes: f.writes.Load(), Syncs: f.syncs.Load(), Bytes: f.bytes.Load()}
}

// Snapshots returns how long each published snapshot took from the
// creation of its temp file to the rename that published it.
func (f *FS) Snapshots() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.snapshots...)
}

// isSnapshotTmp matches the temp name wal.Log.SaveSnapshot writes to.
func isSnapshotTmp(name string) bool { return strings.HasSuffix(name, ".state.tmp") }

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	inner, err := wal.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 && isSnapshotTmp(name) {
		f.mu.Lock()
		f.snapStart[name] = time.Now()
		f.mu.Unlock()
	}
	return &file{File: inner, fs: f, path: name}, nil
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error { return wal.OSFS.MkdirAll(path, perm) }
func (f *FS) ReadDir(name string) ([]os.DirEntry, error)   { return wal.OSFS.ReadDir(name) }
func (f *FS) Truncate(name string, size int64) error       { return wal.OSFS.Truncate(name, size) }

func (f *FS) Remove(name string) error {
	if isSnapshotTmp(name) {
		f.mu.Lock()
		delete(f.snapStart, name) // abandoned cut, or the no-op remove after a rename
		f.mu.Unlock()
	}
	return wal.OSFS.Remove(name)
}

func (f *FS) Rename(oldpath, newpath string) error {
	err := wal.OSFS.Rename(oldpath, newpath)
	if isSnapshotTmp(oldpath) {
		f.mu.Lock()
		if start, ok := f.snapStart[oldpath]; ok && err == nil {
			f.snapshots = append(f.snapshots, time.Since(start))
		}
		delete(f.snapStart, oldpath)
		f.mu.Unlock()
	}
	return err
}

type file struct {
	wal.File
	fs   *FS
	path string
}

func (fl *file) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := fl.File.Write(p)
	fl.fs.writes.Add(1)
	fl.fs.bytes.Add(int64(n))
	if h := fl.fs.Hook; h != nil {
		h(OpWrite, fl.path, start, time.Since(start), n)
	}
	return n, err
}

// Sync stands in for fsync: it sleeps the configured delay and reports
// success. The data is already in the OS page cache (Write went to the
// real file), which is all a crash image taken by copying files needs.
func (fl *file) Sync() error {
	start := time.Now()
	time.Sleep(fl.fs.syncDelay)
	fl.fs.syncs.Add(1)
	if h := fl.fs.Hook; h != nil {
		h(OpSync, fl.path, start, time.Since(start), 0)
	}
	return nil
}
