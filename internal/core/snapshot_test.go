package core

import (
	"encoding/binary"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// snapshotTopology is the cluster every snapshot in this file is taken on.
var snapshotTopology = cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 2}

// realSnapshots returns scheduler snapshots of a few solved states: an empty
// graph, a full cluster with tasks left waiting, and one with a machine out
// of the graph after some tasks completed.
func realSnapshots(t testing.TB) [][]byte {
	t.Helper()
	cl := cluster.New(snapshotTopology)
	s := NewScheduler(cl, policy.NewLoadSpread(cl), DefaultConfig())
	var out [][]byte
	take := func() {
		var e wal.Enc
		s.EncodeSnapshot(&e)
		out = append(out, e.B)
	}
	run := func(now time.Duration) {
		if _, _, err := s.RunOnce(now); err != nil {
			t.Fatalf("RunOnce: %v", err)
		}
	}
	run(0)
	take()
	first := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 6))
	cl.SubmitJob(cluster.Service, 1, 0, make([]cluster.TaskSpec, 14))
	run(time.Second)
	take()
	for _, id := range first.Tasks {
		if cl.Task(id).State == cluster.TaskRunning {
			if err := cl.Complete(id, 2*time.Second); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}
	}
	if err := cl.RemoveMachine(3, 2*time.Second); err != nil {
		t.Fatalf("RemoveMachine: %v", err)
	}
	run(3 * time.Second)
	take()
	return out
}

// snapshotFields locates, in a scheduler snapshot, the byte offsets of the
// fields the corruption cases overwrite.
type snapshotFields struct {
	numTasks    int
	lastMachine int // ID of the last machine record
	machineNode int // node of the first machine record
	jobNode     int // node of the first job record
	jobTasks    int // task count of the first job record
}

func locateFields(t *testing.T, b []byte) snapshotFields {
	t.Helper()
	d := wal.NewDec(b)
	off := func() int { return len(b) - d.Remaining() }
	d.U32()
	if _, err := flow.DecodeSnapshot(d); err != nil {
		t.Fatal(err)
	}
	var f snapshotFields
	d.I64() // solver scale
	d.I64() // sink
	f.numTasks = off()
	d.I64()
	nm := int(d.U32())
	f.machineNode = off() + 8
	for i := 0; i < nm; i++ {
		f.lastMachine = off()
		d.I64()
		d.I64()
		d.I64()
	}
	nt := int(d.U32())
	for i := 0; i < nt; i++ {
		d.I64()
		d.I64()
		d.I64()
		for k := int(d.U32()); k > 0; k-- {
			decodeTarget(d)
			d.I64()
		}
	}
	if d.U32() == 0 {
		t.Fatal("snapshot has no job records")
	}
	f.jobNode = off() + 8
	f.jobTasks = off() + 24
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return f
}

func restoreSnapshot(b []byte) (*Scheduler, error) {
	cl := cluster.New(snapshotTopology)
	return RestoreScheduler(cl, policy.NewLoadSpread(cl), DefaultConfig(), wal.NewDec(b))
}

// TestRestoreRejectsInconsistentSnapshot corrupts one field of a real
// snapshot per case: a record that disagrees with the graph or the cluster
// must fail the restore, not yield a scheduler that breaks later.
func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	snaps := realSnapshots(t)
	snap := snaps[1]
	if _, err := restoreSnapshot(snap); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}
	f := locateFields(t, snap)
	add := func(off int, delta int64) func([]byte) {
		return func(b []byte) {
			binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+uint64(delta))
		}
	}
	set := func(off int, v int64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }
	}
	cases := []struct {
		name    string
		corrupt func([]byte)
	}{
		{"machine ID outside the cluster", set(f.lastMachine, int64(snapshotTopology.Racks*snapshotTopology.MachinesPerRack))},
		{"machine ID negative", set(f.lastMachine, -1)},
		{"machine node not its sink arc's tail", add(f.machineNode, 1)},
		{"job node not its sink arc's tail", add(f.jobNode, 1)},
		{"job task count not its sink arc's capacity", add(f.jobTasks, 1)},
		{"task count not the number of task records", add(f.numTasks, 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := append([]byte(nil), snap...)
			c.corrupt(b)
			if _, err := restoreSnapshot(b); err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
		})
	}
}

// FuzzRestoreScheduler feeds RestoreScheduler arbitrary bytes, seeded with
// real snapshots: it must return an error or a consistent scheduler, whose
// state encodes again, and never panic.
func FuzzRestoreScheduler(f *testing.F) {
	for _, b := range realSnapshots(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := restoreSnapshot(b)
		if err != nil {
			return
		}
		if err := s.gm.sanityCheck(); err != nil {
			t.Fatalf("restored scheduler inconsistent: %v", err)
		}
		s.Fingerprint()
	})
}

// TestRestoreHonoursConfig restores a snapshot under a configuration that
// differs from the default in every field: the restored scheduler's solver
// pool must carry the same settings as one NewScheduler builds from that
// configuration.
func TestRestoreHonoursConfig(t *testing.T) {
	cfg := Config{Mode: ModeRelaxationOnly, Alpha: 5}
	cl := cluster.New(snapshotTopology)
	want := NewScheduler(cl, policy.NewLoadSpread(cl), cfg)
	got, err := RestoreScheduler(cl, policy.NewLoadSpread(cl), cfg, wal.NewDec(realSnapshots(t)[1]))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	type settings struct {
		cfg   Config
		mode  SolverMode
		alpha int64
	}
	of := func(s *Scheduler) settings {
		return settings{s.cfg, s.pool.Mode, s.pool.Options.Alpha}
	}
	if g, w := of(got), of(want); g != w {
		t.Fatalf("restored scheduler settings %+v, live %+v", g, w)
	}
}
