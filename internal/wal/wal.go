// Package wal implements the durable event journal backing the serving
// layer's crash recovery (ROADMAP: production hardening).
//
// A Log is an append-only sequence of records stored in segment files.
// Every record is framed as
//
//	[u32 length][u32 CRC32-Castagnoli of payload][payload bytes]
//
// with all integers little-endian. Records are numbered by a contiguous
// sequence starting at 1. Segment files are named wal-<firstseq>.log where
// <firstseq> is the zero-padded sequence number of the first record in the
// segment; each opens with an 16-byte header (magic, version, first seq) so
// a stray file is never misread as a journal.
//
// Durability follows the classic group-commit design: Append serialises
// the record into the OS-buffered writer and returns its sequence number;
// SyncTo(seq) blocks until every record up to seq is fsynced, and
// concurrent SyncTo callers share a single fsync (leader/follower).
// A crash can therefore tear only the unacknowledged tail: Open scans the
// final segment and truncates at the first torn or corrupt frame, so an
// acknowledged (synced) record is never lost and an unacknowledged one is
// dropped cleanly rather than half-applied.
//
// Snapshots are stored alongside the segments as snap-<seq>.state, where
// <seq> is the replay low-water mark: replaying records with sequence
// >= <seq> on top of the snapshot reproduces the live state. Snapshot
// writes are atomic (tmp file + rename) and retention-driven truncation
// deletes whole segments that fall entirely below the oldest retained
// snapshot's low-water mark.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before SyncTo returns. Group commit still batches
	// concurrent callers into one fsync.
	SyncAlways SyncPolicy = iota
	// SyncBatch flushes records to the OS on every round but leaves fsync
	// to the kernel (plus explicit Sync calls, e.g. before a snapshot).
	// Survives process crashes (kill -9); may lose the tail on power loss.
	SyncBatch
	// SyncNone never fsyncs except before snapshots and on Close.
	SyncNone
)

// ParseSyncPolicy maps the CLI spelling ("always", "batch", "none") to a
// SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, batch or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

const (
	segMagic  = "FWALSEG1"
	snapMagic = "FWALSNP1"

	headerSize = 16 // magic(8) + firstSeq(8)
	frameSize  = 8  // len(4) + crc(4)

	// DefaultSegmentBytes is the rotation threshold for segment files.
	DefaultSegmentBytes = 64 << 20

	maxRecordBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a damaged record in the interior of the log (not the
// recoverable tail).
var ErrCorrupt = errors.New("wal: corrupt record")

// Options configures Open.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync selects the fsync policy. Default SyncAlways.
	Sync SyncPolicy
	// FS overrides the filesystem the journal reads and writes through.
	// Nil means the real one (OSFS). Tests substitute a fault-injecting
	// implementation (internal/faultfs).
	FS FS
}

type segment struct {
	path     string
	firstSeq uint64
}

// Log is a durable append-only record log. Append/SyncTo/Flush are safe for
// concurrent use; Replay, SaveSnapshot and TruncateBefore must not run
// concurrently with appends.
type Log struct {
	dir  string
	opts Options
	fs   FS

	mu       sync.Mutex // guards append state
	segments []segment  // sorted by firstSeq; last is active
	f        File       // active segment
	w        *bufio.Writer
	size     int64           // bytes written to active segment
	lastSeq  uint64          // last appended sequence number
	frame    [frameSize]byte // Append's frame header; a local would escape into the writer

	syncMu     sync.Mutex // serialises fsync; queued callers form the commit group
	flushedSeq uint64     // highest seq flushed to the OS (guarded by mu)
	syncedSeq  uint64     // highest seq known fsynced (guarded by syncMu)
}

// Open opens (creating if needed) the journal in dir and recovers its tail:
// the last segment is scanned and truncated at the first torn or corrupt
// frame. Corruption in any non-final segment is an error.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS}
	if err := l.removeStaleTmp(); err != nil {
		return nil, err
	}
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	l.flushedSeq = l.lastSeq
	l.syncedSeq = l.lastSeq
	return l, nil
}

// removeStaleTmp deletes leftover snapshot temp files. A crash between
// creating snap-*.state.tmp and the rename that publishes it orphans the
// tmp file; nothing ever reads one, so Open sweeps them.
func (l *Log) removeStaleTmp() error {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) loadSegments() error {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	l.segments = l.segments[:0]
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		first, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		l.segments = append(l.segments, segment{path: filepath.Join(l.dir, name), firstSeq: first})
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].firstSeq < l.segments[j].firstSeq })
	return nil
}

// recover validates every segment, truncating the torn tail of the final
// one and setting lastSeq.
func (l *Log) recover() error {
	l.lastSeq = 0
	for i, seg := range l.segments {
		last := i == len(l.segments)-1
		n, validEnd, err := scanSegment(l.fs, seg.path, seg.firstSeq)
		if err != nil {
			if !last {
				return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, filepath.Base(seg.path), err)
			}
			// Torn tail: keep the valid prefix. A final segment with a
			// damaged header and no valid records is dropped entirely
			// (crash during rotation).
			if validEnd <= headerSize && n == 0 {
				if rmErr := l.fs.Remove(seg.path); rmErr != nil {
					return rmErr
				}
				l.segments = l.segments[:i]
				break
			}
			if trErr := l.fs.Truncate(seg.path, validEnd); trErr != nil {
				return trErr
			}
		}
		if n > 0 {
			l.lastSeq = seg.firstSeq + n - 1
		} else if !last {
			l.lastSeq = seg.firstSeq - 1
		}
	}
	if len(l.segments) > 0 && l.lastSeq == 0 {
		l.lastSeq = l.segments[len(l.segments)-1].firstSeq - 1
	}
	return nil
}

// scanSegment counts the valid records in a segment file. It returns the
// record count, the byte offset of the end of the last valid record, and an
// error if the file ends in a torn or corrupt frame (validEnd still set).
func scanSegment(fs FS, path string, firstSeq uint64) (n uint64, validEnd int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("short header: %v", err)
	}
	if string(hdr[:8]) != segMagic {
		return 0, 0, fmt.Errorf("bad magic %q", hdr[:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != firstSeq {
		return 0, 0, fmt.Errorf("header first seq %d != filename %d", got, firstSeq)
	}
	validEnd = headerSize
	var frame [frameSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF {
				return n, validEnd, nil
			}
			return n, validEnd, fmt.Errorf("torn frame header at %d", validEnd)
		}
		ln := binary.LittleEndian.Uint32(frame[:4])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if ln > maxRecordBytes {
			return n, validEnd, fmt.Errorf("implausible record length %d at %d", ln, validEnd)
		}
		if cap(buf) < int(ln) {
			buf = make([]byte, ln)
		}
		buf = buf[:ln]
		if _, err := io.ReadFull(r, buf); err != nil {
			return n, validEnd, fmt.Errorf("torn record payload at %d", validEnd)
		}
		if crc32.Checksum(buf, castagnoli) != crc {
			return n, validEnd, fmt.Errorf("checksum mismatch at %d", validEnd)
		}
		n++
		validEnd += frameSize + int64(ln)
	}
}

// openActive opens the last segment for appending, creating the first
// segment if the log is empty.
func (l *Log) openActive() error {
	if len(l.segments) == 0 {
		return l.rotateLocked(l.lastSeq + 1)
	}
	seg := l.segments[len(l.segments)-1]
	f, err := l.fs.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = st.Size()
	l.w = bufio.NewWriterSize(f, 1<<20)
	return nil
}

// rotateLocked finalises the active segment and starts a new one whose
// first record will be seq. Callers hold l.mu (or are in Open).
func (l *Log) rotateLocked(seq uint64) error {
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%020d.log", seq))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(l.fs, l.dir)
	l.f = f
	l.size = headerSize
	l.w = bufio.NewWriterSize(f, 1<<20)
	l.segments = append(l.segments, segment{path: path, firstSeq: seq})
	return nil
}

// Append serialises one record and returns its sequence number. The record
// is buffered; call SyncTo (or Flush) to make it durable per the policy.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: log closed")
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(l.lastSeq + 1); err != nil {
			return 0, err
		}
	}
	binary.LittleEndian.PutUint32(l.frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.frame[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.w.Write(l.frame[:]); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, err
	}
	l.size += frameSize + int64(len(payload))
	l.lastSeq++
	return l.lastSeq, nil
}

// LastSeq returns the sequence number of the most recently appended record
// (0 if the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Probe writes, fsyncs and removes a scratch file in the log directory,
// proving the directory's write path actually works. Reopening an existing
// log performs no writes (the active segment is opened for append, records
// are buffered), so a successful Open is no evidence that a sick disk has
// healed; the durability re-arm calls Probe before trusting one. The
// scratch name ends in .tmp so a crash mid-probe leaves only an orphan the
// next Open sweeps.
func (l *Log) Probe() error {
	path := filepath.Join(l.dir, "wal-probe.tmp")
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("wal write probe")); err != nil {
		f.Close()
		l.fs.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.fs.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		l.fs.Remove(path)
		return err
	}
	return l.fs.Remove(path)
}

// Flush pushes buffered records to the OS without fsync. Sufficient to
// survive a process crash (kill -9); not a power failure.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.flushedSeq = l.lastSeq
	return nil
}

// SyncTo blocks until every record with sequence <= seq is durable under
// the configured policy. Under SyncAlways it group-commits: concurrent
// callers ride a single fsync. Under SyncBatch/SyncNone it only flushes to
// the OS.
func (l *Log) SyncTo(seq uint64) error {
	if l.opts.Sync != SyncAlways {
		l.mu.Lock()
		defer l.mu.Unlock()
		if seq <= l.flushedSeq {
			return nil
		}
		return l.flushLocked()
	}
	return l.syncNow(seq)
}

// Sync forces an fsync of everything appended so far regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.lastSeq
	l.mu.Unlock()
	return l.syncNow(seq)
}

func (l *Log) syncNow(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if seq <= l.syncedSeq {
		return nil
	}
	// Leader: flush the buffer (grabbing mu briefly) then fsync. Followers
	// queue behind syncMu and find syncedSeq already advanced.
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.flushedSeq = l.lastSeq
	flushed := l.lastSeq
	f := l.f
	l.mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	l.syncedSeq = flushed
	return nil
}

// Replay invokes fn for every record with sequence >= from, in order. The
// payload slice is reused between calls; fn must not retain it.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.w != nil {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	segs := append([]segment(nil), l.segments...)
	last := l.lastSeq
	l.mu.Unlock()

	var buf []byte
	for i, seg := range segs {
		// Skip segments entirely below the replay point.
		if i+1 < len(segs) && segs[i+1].firstSeq <= from {
			continue
		}
		f, err := l.fs.OpenFile(seg.path, os.O_RDONLY, 0)
		if err != nil {
			return err
		}
		r := bufio.NewReaderSize(f, 1<<20)
		if _, err := io.ReadFull(r, make([]byte, headerSize)); err != nil {
			f.Close()
			return fmt.Errorf("%w: %s: short header", ErrCorrupt, filepath.Base(seg.path))
		}
		seq := seg.firstSeq - 1
		var frame [frameSize]byte
		for seq < last {
			if i+1 < len(segs) && seq+1 >= segs[i+1].firstSeq {
				break // rest of this range lives in the next segment
			}
			if _, err := io.ReadFull(r, frame[:]); err != nil {
				if err == io.EOF {
					break
				}
				f.Close()
				return fmt.Errorf("%w: %s at seq %d: %v", ErrCorrupt, filepath.Base(seg.path), seq+1, err)
			}
			ln := binary.LittleEndian.Uint32(frame[:4])
			crc := binary.LittleEndian.Uint32(frame[4:])
			if ln > maxRecordBytes {
				f.Close()
				return fmt.Errorf("%w: %s at seq %d: implausible length", ErrCorrupt, filepath.Base(seg.path), seq+1)
			}
			if cap(buf) < int(ln) {
				buf = make([]byte, ln)
			}
			buf = buf[:ln]
			if _, err := io.ReadFull(r, buf); err != nil {
				f.Close()
				return fmt.Errorf("%w: %s at seq %d: torn payload", ErrCorrupt, filepath.Base(seg.path), seq+1)
			}
			if crc32.Checksum(buf, castagnoli) != crc {
				f.Close()
				return fmt.Errorf("%w: %s at seq %d: checksum mismatch", ErrCorrupt, filepath.Base(seg.path), seq+1)
			}
			seq++
			if seq >= from {
				if err := fn(seq, buf); err != nil {
					f.Close()
					return err
				}
			}
		}
		f.Close()
	}
	return nil
}

// SaveSnapshot atomically writes a snapshot whose replay low-water mark is
// lowWater: replaying records with seq >= lowWater on top of this snapshot
// reproduces the current state. The WAL is synced first so the snapshot
// never refers to records that could be lost.
func (l *Log) SaveSnapshot(lowWater uint64, write func(w io.Writer) error) (string, error) {
	if err := l.Sync(); err != nil {
		return "", err
	}
	path := filepath.Join(l.dir, fmt.Sprintf("snap-%020d.state", lowWater))
	tmp := path + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	defer l.fs.Remove(tmp) // no-op after successful rename
	var hdr [headerSize]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:], lowWater)
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return "", err
	}
	if err := write(bw); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return "", err
	}
	syncDir(l.fs, l.dir)
	return path, nil
}

// Snapshots returns the low-water marks of all snapshots in the directory,
// ascending.
func (l *Log) Snapshots() ([]uint64, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var lws []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".state") {
			continue
		}
		lw, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".state"), 10, 64)
		if err != nil {
			continue
		}
		lws = append(lws, lw)
	}
	sort.Slice(lws, func(i, j int) bool { return lws[i] < lws[j] })
	return lws, nil
}

// LatestSnapshot opens the newest snapshot, returning a reader positioned
// after the header, the snapshot's low-water mark, and a close func.
// Returns os.ErrNotExist if no snapshot exists.
func (l *Log) LatestSnapshot() (io.Reader, uint64, func() error, error) {
	lws, err := l.Snapshots()
	if err != nil {
		return nil, 0, nil, err
	}
	if len(lws) == 0 {
		return nil, 0, nil, os.ErrNotExist
	}
	lw := lws[len(lws)-1]
	path := filepath.Join(l.dir, fmt.Sprintf("snap-%020d.state", lw))
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, nil, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		f.Close()
		return nil, 0, nil, fmt.Errorf("%w: snapshot %s: short header", ErrCorrupt, filepath.Base(path))
	}
	if string(hdr[:8]) != snapMagic {
		f.Close()
		return nil, 0, nil, fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != lw {
		f.Close()
		return nil, 0, nil, fmt.Errorf("%w: snapshot %s: header low-water %d != filename %d", ErrCorrupt, filepath.Base(path), got, lw)
	}
	return r, lw, f.Close, nil
}

// TruncateBefore deletes snapshots and whole segments that are no longer
// needed to restore from any of the newest `retain` snapshots. Segments
// containing any record >= the oldest retained low-water mark are kept.
func (l *Log) TruncateBefore(retain int) error {
	if retain < 1 {
		retain = 1
	}
	lws, err := l.Snapshots()
	if err != nil {
		return err
	}
	if len(lws) == 0 {
		return nil
	}
	keepFrom := lws[0]
	if len(lws) > retain {
		keepFrom = lws[len(lws)-retain]
		for _, lw := range lws[:len(lws)-retain] {
			l.fs.Remove(filepath.Join(l.dir, fmt.Sprintf("snap-%020d.state", lw)))
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A segment is deletable if the NEXT segment starts at or below
	// keepFrom (i.e. every record in it is < keepFrom). The active
	// segment is never deleted.
	kept := l.segments[:0]
	for i, seg := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1].firstSeq <= keepFrom {
			if err := l.fs.Remove(seg.path); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	return nil
}

// Close flushes, syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	//firmament:ignore lockorder Close is one-shot teardown; l.mu must exclude concurrent Append until the final flush+fsync lands
	if err := l.f.Sync(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	l.w = nil
	return err
}

// syncDir fsyncs a directory so renames and creates are durable. Best
// effort: some filesystems reject directory fsync.
func syncDir(fs FS, dir string) {
	if d, err := fs.OpenFile(dir, os.O_RDONLY, 0); err == nil {
		d.Sync()
		d.Close()
	}
}
