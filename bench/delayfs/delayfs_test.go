package delayfs

import (
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"firmament/internal/wal"
)

func TestSyncDelaysAndCounts(t *testing.T) {
	const delay = 2 * time.Millisecond
	fs := New(delay)
	var hooked atomic.Int64
	fs.Hook = func(op Op, path string, start time.Time, took time.Duration, bytes int) { hooked.Add(1) }

	path := filepath.Join(t.TempDir(), "f")
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(", world")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < delay {
		t.Errorf("Sync returned after %v, injected delay is %v", took, delay)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.Counts(), (Counts{Writes: 2, Syncs: 1, Bytes: 12}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
	if hooked.Load() != 3 {
		t.Errorf("hook saw %d operations, want 3", hooked.Load())
	}
	// The bytes went to the real file: a copy of the directory is a crash image.
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello, world" {
		t.Errorf("file holds %q, %v", b, err)
	}
}

// TestJournalOverDelayFS runs the real journal over the FS: records
// survive a reopen, every fsync the log issues is counted, and a snapshot
// cut is timed from temp-file creation to the publishing rename.
func TestJournalOverDelayFS(t *testing.T) {
	dir := t.TempDir()
	fs := New(100 * time.Microsecond)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	base := fs.Counts().Syncs // creating the first segment syncs it
	for i := 0; i < 10; i++ {
		seq, err := log.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.SyncTo(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Counts().Syncs - base; got != 10 {
		t.Errorf("10 synchronous appends cost %d syncs", got)
	}
	if _, err := log.SaveSnapshot(11, func(w io.Writer) error {
		_, err := w.Write([]byte("state"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(fs.Snapshots()); n != 1 {
		t.Errorf("%d snapshot cuts timed, want 1", n)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log, err = wal.Open(dir, wal.Options{FS: New(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	n := 0
	if err := log.Replay(0, func(uint64, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("replayed %d records, want 10", n)
	}
}
