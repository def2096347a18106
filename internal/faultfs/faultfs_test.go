package faultfs

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// call is one step of a scripted schedule: a sync or a one-byte append on
// the named file, a Heal, or an Inject.
type call struct {
	op     Op
	file   string
	heal   bool
	inject *Fault
}

func fsync(file string) call   { return call{op: OpSync, file: file} }
func append1(file string) call { return call{op: OpWrite, file: file} }

// TestFaultFS drives scripted schedules through the FS and checks which
// calls fail ("x") and which pass ("."), in order, and the Fired total at
// the end; then a torn write at an offset, and seeded random schedules.
func TestFaultFS(t *testing.T) {
	heal := call{heal: true}
	cases := []struct {
		name      string
		faults    []Fault
		calls     []call
		want      string
		wantFired int
	}{
		{name: "after-then-count",
			faults: []Fault{{Op: OpSync, After: 2, Count: 2, Err: syscall.EINTR}},
			calls:  []call{fsync("wal-1"), fsync("wal-1"), fsync("wal-1"), fsync("wal-1"), fsync("wal-1"), fsync("wal-1")},
			want:   "..xx..", wantFired: 2},
		{name: "other-ops-do-not-count",
			faults: []Fault{{Op: OpSync, After: 1, Count: 1}},
			calls:  []call{append1("wal-1"), fsync("wal-1"), append1("wal-1"), fsync("wal-1"), fsync("wal-1")},
			want:   "...x.", wantFired: 1},
		{name: "persistent-until-heal",
			faults: []Fault{{Op: OpSync, Count: Persistent}},
			calls:  []call{fsync("wal-1"), fsync("wal-1"), fsync("wal-1"), heal, fsync("wal-1"), fsync("wal-1")},
			want:   "xxx..", wantFired: 3},
		{name: "path-restricts",
			faults: []Fault{{Op: OpWrite, Path: "wal-", Count: Persistent, Err: syscall.ENOSPC}},
			calls:  []call{append1("snap-1"), append1("wal-1"), append1("snap-1"), append1("wal-1"), fsync("wal-1")},
			want:   ".x.x.", wantFired: 2},
		{name: "path-counts-only-matches",
			faults: []Fault{{Op: OpSync, Path: "wal-", After: 1, Count: 1}},
			calls:  []call{fsync("snap-1"), fsync("wal-1"), fsync("snap-1"), fsync("wal-1"), fsync("wal-1")},
			want:   "...x.", wantFired: 1},
		{name: "fired-counts-across-heal",
			faults: []Fault{{Op: OpSync, Count: 1}},
			calls: []call{fsync("wal-1"), heal, fsync("wal-1"),
				{inject: &Fault{Op: OpWrite, Count: 1}}, append1("wal-1"), append1("wal-1")},
			want: "x.x.", wantFired: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := New()
			for _, f := range tc.faults {
				fs.Inject(f)
			}
			var got []byte
			for _, c := range tc.calls {
				switch {
				case c.heal:
					fs.Heal()
					continue
				case c.inject != nil:
					fs.Inject(*c.inject)
					continue
				}
				if err := do(t, fs, filepath.Join(dir, c.file), c.op); err != nil {
					got = append(got, 'x')
				} else {
					got = append(got, '.')
				}
			}
			if string(got) != tc.want {
				t.Fatalf("schedule %q, want %q", got, tc.want)
			}
			if n := fs.Fired(); n != tc.wantFired {
				t.Fatalf("Fired() = %d, want %d", n, tc.wantFired)
			}
		})
	}
	t.Run("cut-at", testCutAt)
	t.Run("random-fault-seeded", testRandomFaultSeeded)
}

// do opens path through fs (creating it on first use) and performs one op.
func do(t *testing.T, fs *FS, path string, op Op) error {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if op == OpSync {
		return f.Sync()
	}
	_, err = f.Write([]byte{'b'})
	return err
}

// testCutAt: a CutAt fault leaves writes wholly below the offset alone,
// persists exactly the bytes below it from the write that crosses it, and
// fires once.
func testCutAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-1.log")
	fs := New()
	fs.Inject(Fault{Op: OpWrite, Count: 1, CutAt: 15})
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	stream := []byte("0123456789abcdefghijKLMNOPQRST")
	if n, err := f.Write(stream[:10]); n != 10 || err != nil {
		t.Fatalf("write below the cut: n=%d err=%v", n, err)
	}
	n, err := f.Write(stream[10:20])
	if n != 5 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("write across the cut: n=%d err=%v, want 5 and EIO", n, err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, stream[:15]) {
		t.Fatalf("file holds %q, want the %q below the cut", got, stream[:15])
	}
	if n, err := f.Write(stream[20:]); n != 10 || err != nil {
		t.Fatalf("write after the spent fault: n=%d err=%v", n, err)
	}
	if fs.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", fs.Fired())
	}
}

// testRandomFaultSeeded: a fixed seed draws the same schedule twice.
func testRandomFaultSeeded(t *testing.T) {
	draw := func(seed int64) []Fault {
		rng := rand.New(rand.NewSource(seed))
		out := make([]Fault, 32)
		for i := range out {
			out[i] = RandomFault(rng)
		}
		return out
	}
	if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 drew two different schedules:\n%v\n%v", a, b)
	}
	if a, b := draw(7), draw(8); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
}
