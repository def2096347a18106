package wal

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func collect(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	if err := l.Replay(from, func(seq uint64, p []byte) error {
		got[seq] = append([]byte(nil), p...)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	want := map[uint64][]byte{}
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%37)))
		seq, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		want[seq] = p
	}
	if err := l.SyncTo(l.LastSeq()); err != nil {
		t.Fatalf("SyncTo: %v", err)
	}
	got := collect(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for seq, p := range want {
		if !bytes.Equal(got[seq], p) {
			t.Fatalf("record %d mismatch", seq)
		}
	}
	// Partial replay.
	if got := collect(t, l, 51); len(got) != 50 {
		t.Fatalf("replay from 51: %d records, want 50", len(got))
	}
	l.Close()

	// Reopen and replay again.
	l2 := openT(t, dir, Options{})
	if l2.LastSeq() != 100 {
		t.Fatalf("reopened LastSeq = %d, want 100", l2.LastSeq())
	}
	if got := collect(t, l2, 1); len(got) != 100 {
		t.Fatalf("reopened replay: %d records", len(got))
	}
	l2.Close()
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 8, 9, 15} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{})
			for i := 0; i < 10; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			// Tear the tail: chop `cut` bytes off the end of the segment.
			seg := filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1))
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, st.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			l2 := openT(t, dir, Options{})
			defer l2.Close()
			if l2.LastSeq() != 9 {
				t.Fatalf("after tear of %d bytes LastSeq = %d, want 9", cut, l2.LastSeq())
			}
			got := collect(t, l2, 1)
			if len(got) != 9 {
				t.Fatalf("replayed %d records, want 9", len(got))
			}
			// The log must accept appends after recovery and number them
			// contiguously.
			seq, err := l2.Append([]byte("after-recovery"))
			if err != nil || seq != 10 {
				t.Fatalf("post-recovery append: seq %d err %v", seq, err)
			}
		})
	}
}

func TestCorruptTailRecordDropped(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("r%d", i)))
	}
	l.Close()
	// Flip a byte inside the last record's payload.
	seg := filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4 (corrupt record dropped)", l2.LastSeq())
	}
}

func TestCorruptInteriorSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 100; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 64))
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	// Corrupt a record in the FIRST segment (interior of the log).
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameSize+2] ^= 0xff
	os.WriteFile(segs[0], data, 0o644)
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil {
		t.Fatal("Open accepted interior corruption")
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 200; i++ {
		l.Append([]byte(fmt.Sprintf("record-number-%04d", i)))
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 4 {
		t.Fatalf("expected >= 4 segments, got %d", len(segs))
	}
	l2 := openT(t, dir, Options{SegmentBytes: 512})
	defer l2.Close()
	if l2.LastSeq() != 200 {
		t.Fatalf("LastSeq = %d, want 200", l2.LastSeq())
	}
	got := collect(t, l2, 150)
	if len(got) != 51 {
		t.Fatalf("replay from 150: %d records, want 51", len(got))
	}
	if string(got[177]) != "record-number-0176" {
		t.Fatalf("record 177 = %q", got[177])
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	defer l.Close()
	const writers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := l.SyncTo(seq); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if l.LastSeq() != writers*per {
		t.Fatalf("LastSeq = %d, want %d", l.LastSeq(), writers*per)
	}
	seen := map[string]bool{}
	l.Replay(1, func(seq uint64, p []byte) error {
		seen[string(p)] = true
		return nil
	})
	if len(seen) != writers*per {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*per)
	}
}

func TestSnapshotSaveLoadTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 100; i++ {
		l.Append([]byte(fmt.Sprintf("pre-snap-%04d", i)))
	}
	lw := l.LastSeq() + 1
	if _, err := l.SaveSnapshot(lw, func(w io.Writer) error {
		return WriteSection(w, []byte("state-at-100"))
	}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	for i := 100; i < 200; i++ {
		l.Append([]byte(fmt.Sprintf("post-snap-%04d", i)))
	}
	lw2 := l.LastSeq() + 1
	if _, err := l.SaveSnapshot(lw2, func(w io.Writer) error {
		return WriteSection(w, []byte("state-at-200"))
	}); err != nil {
		t.Fatal(err)
	}

	r, gotLW, closeFn, err := l.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if gotLW != lw2 {
		t.Fatalf("latest snapshot lw = %d, want %d", gotLW, lw2)
	}
	body, err := ReadSection(r)
	if err != nil || string(body) != "state-at-200" {
		t.Fatalf("snapshot body = %q err %v", body, err)
	}
	closeFn()

	// Retain only the newest snapshot; old segments must be deleted but
	// every record >= lw2 must survive.
	if err := l.TruncateBefore(1); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	snaps, _ := l.Snapshots()
	if len(snaps) != 1 || snaps[0] != lw2 {
		t.Fatalf("snapshots after truncate = %v, want [%d]", snaps, lw2)
	}
	if got := collect(t, l, lw2); len(got) != 0 {
		t.Fatalf("unexpected records >= lw2: %d", len(got))
	}
	l.Append([]byte("after-truncate"))
	if got := collect(t, l, lw2); len(got) != 1 {
		t.Fatalf("append after truncate: replayed %d", len(got))
	}
	l.Close()

	// Reopen from the truncated directory.
	l2 := openT(t, dir, Options{SegmentBytes: 512})
	defer l2.Close()
	if l2.LastSeq() != 201 {
		t.Fatalf("reopened LastSeq = %d, want 201", l2.LastSeq())
	}
}

func TestEmptyLogAndNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	defer l.Close()
	if l.LastSeq() != 0 {
		t.Fatalf("fresh LastSeq = %d", l.LastSeq())
	}
	if _, _, _, err := l.LatestSnapshot(); !os.IsNotExist(err) {
		t.Fatalf("LatestSnapshot on empty dir: %v", err)
	}
	if got := collect(t, l, 1); len(got) != 0 {
		t.Fatalf("empty replay returned %d records", len(got))
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Enc
	var u64s []uint64
	var strs []string
	for i := 0; i < 50; i++ {
		v := rng.Uint64()
		u64s = append(u64s, v)
		e.U64(v)
		s := fmt.Sprintf("s-%d", rng.Intn(1000))
		strs = append(strs, s)
		e.Str(s)
		e.Bool(i%3 == 0)
		e.I64(-int64(i) * 1e12)
	}
	d := NewDec(e.B)
	for i := 0; i < 50; i++ {
		if got := d.U64(); got != u64s[i] {
			t.Fatalf("u64[%d] = %d want %d", i, got, u64s[i])
		}
		if got := d.Str(); got != strs[i] {
			t.Fatalf("str[%d] = %q want %q", i, got, strs[i])
		}
		if got := d.Bool(); got != (i%3 == 0) {
			t.Fatalf("bool[%d] = %v", i, got)
		}
		if got := d.I64(); got != -int64(i)*1e12 {
			t.Fatalf("i64[%d] = %d", i, got)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err %v remaining %d", d.Err(), d.Remaining())
	}
	// Truncated input latches an error instead of panicking.
	d2 := NewDec(e.B[:5])
	d2.U64()
	d2.Str()
	if d2.Err() == nil {
		t.Fatal("truncated decode did not error")
	}
}

// syncCountFS counts fsyncs of segment files.
type syncCountFS struct {
	FS
	syncs atomic.Int64
}

type syncCountFile struct {
	File
	fs *syncCountFS
}

func (c *syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return syncCountFile{f, c}, nil
}

func (f syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestSyncBatchPacesItself: a SyncBatch log fsyncs what it has appended
// within two pacer intervals, with no Sync or SyncTo call from its user,
// and Close stops the pacer before it returns.
func TestSyncBatchPacesItself(t *testing.T) {
	fs := &syncCountFS{FS: OSFS}
	l := openT(t, t.TempDir(), Options{Sync: SyncBatch, FS: fs})
	if _, err := l.Append([]byte("paced")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	before := fs.syncs.Load()
	deadline := time.Now().Add(2 * batchSyncInterval)
	for fs.syncs.Load() == before {
		if time.Now().After(deadline) {
			t.Fatalf("no fsync within %v of an append", 2*batchSyncInterval)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-l.pacerDone:
	default:
		t.Fatal("Close returned with the pacer still running")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
