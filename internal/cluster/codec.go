package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"

	"firmament/internal/wal"
)

// This file is the durable representation of a Cluster: a deterministic
// binary snapshot of the job/task/machine tables (including the undrained
// per-shard event journals and the retired totals) and the per-event codec
// used by the service's write-ahead journal. Both use the fixed-width
// little-endian wal.Enc/wal.Dec encoding so identical state always
// produces identical bytes — the crash-recovery differential tests
// fingerprint the encoding directly.

// snapVersion 2 added each shard's retired totals; version-1 snapshots
// (written before retirement existed) still decode, with zero totals.
// Neither carries the done lists: a decoded job with no task left to
// complete joins its shard's done list.
const snapVersion = 2

// EncodeEvent appends the wire form of one cluster event.
//
//firmament:deterministic
func EncodeEvent(e *wal.Enc, ev Event) {
	e.U8(uint8(ev.Kind))
	e.I64(int64(ev.Task))
	e.I64(int64(ev.Machine))
	e.Dur(ev.Time)
}

// DecodeEvent reads one event written by EncodeEvent.
//
//firmament:deterministic
func DecodeEvent(d *wal.Dec) Event {
	return Event{
		Kind:    EventKind(d.U8()),
		Task:    TaskID(d.I64()),
		Machine: MachineID(d.I64()),
		Time:    d.Dur(),
	}
}

// EncodeSpec appends the wire form of one task spec.
//
//firmament:deterministic
func EncodeSpec(e *wal.Enc, s TaskSpec) {
	e.Dur(s.Duration)
	e.I64(s.InputFile)
	e.I64(s.InputSize)
	e.I64(s.NetDemand)
}

// DecodeSpec reads one spec written by EncodeSpec.
//
//firmament:deterministic
func DecodeSpec(d *wal.Dec) TaskSpec {
	return TaskSpec{
		Duration:  d.Dur(),
		InputFile: d.I64(),
		InputSize: d.I64(),
		NetDemand: d.I64(),
	}
}

//firmament:deterministic
func encodeTask(e *wal.Enc, t *Task) {
	e.I64(int64(t.ID))
	e.Dur(t.Duration)
	e.I64(t.InputFile)
	e.I64(t.InputSize)
	e.I64(t.NetDemand)
	e.U8(uint8(t.State))
	e.Dur(t.SubmitTime)
	e.Dur(t.StartTime)
	e.Dur(t.FinishTime)
	e.I64(int64(t.Machine))
	e.I64(int64(t.Preemptions))
}

//firmament:deterministic
func decodeTask(d *wal.Dec) *Task {
	t := &Task{}
	t.ID = TaskID(d.I64())
	t.Job = JobOfTask(t.ID)
	t.Index = int(int64(t.ID) & 0xffffffff)
	t.Duration = d.Dur()
	t.InputFile = d.I64()
	t.InputSize = d.I64()
	t.NetDemand = d.I64()
	t.State = TaskState(d.U8())
	t.SubmitTime = d.Dur()
	t.StartTime = d.Dur()
	t.FinishTime = d.Dur()
	t.Machine = MachineID(d.I64())
	t.Preemptions = int(d.I64())
	return t
}

// EncodeSnapshot serialises the cluster state: the live tables and the
// retired totals. The caller must
// guarantee quiescence (no concurrent mutators) — in the service this runs
// on the scheduling goroutine between rounds. Iteration is in sorted ID
// order throughout so identical state yields identical bytes.
//
//firmament:deterministic
func (c *Cluster) EncodeSnapshot(e *wal.Enc) {
	e.U32(snapVersion)
	e.I64(int64(c.topo.Racks))
	e.I64(int64(c.topo.MachinesPerRack))
	e.I64(int64(c.topo.SlotsPerMachine))
	e.I64(c.topo.NICBps)
	e.U32(uint32(len(c.shards)))
	e.I64(int64(c.nextJob.Load()))

	// Machine health. Occupancy and reserved bandwidth are rebuilt from
	// the running tasks on decode.
	c.machMu.RLock()
	e.U32(uint32(len(c.machines)))
	for _, m := range c.machines {
		e.Bool(m.healthy)
	}
	c.machMu.RUnlock()

	// Jobs and tasks, shard by shard, sorted by ID within each shard.
	for _, sh := range c.shards {
		sh.mu.RLock()
		jobIDs := make([]JobID, 0, len(sh.jobs))
		for id := range sh.jobs {
			jobIDs = append(jobIDs, id)
		}
		slices.Sort(jobIDs)
		e.U32(uint32(len(jobIDs)))
		for _, id := range jobIDs {
			j := sh.jobs[id]
			e.I64(int64(j.ID))
			e.U8(uint8(j.Class))
			e.I64(int64(j.Priority))
			e.Dur(j.SubmitTime)
			e.I64(int64(j.remaining))
			e.U32(uint32(len(j.Tasks)))
			for _, tid := range j.Tasks {
				encodeTask(e, sh.tasks[tid])
			}
		}
		e.I64(sh.retiredJobs)
		e.I64(sh.retiredTasks)
		// Undrained event journal: a fuzzy snapshot may capture a job whose
		// submission events have not yet been consumed by the scheduler, so
		// the queue is part of the state.
		e.U32(uint32(len(sh.events)))
		for _, ev := range sh.events {
			EncodeEvent(e, ev)
		}
		sh.mu.RUnlock()
	}
}

// DecodeSnapshot rebuilds a Cluster from EncodeSnapshot bytes.
//
//firmament:deterministic
func DecodeSnapshot(d *wal.Dec) (*Cluster, error) {
	v := d.U32()
	if v != 1 && v != snapVersion {
		return nil, fmt.Errorf("cluster: snapshot version %d (want <= %d)", v, snapVersion)
	}
	topo := Topology{
		Racks:           int(d.I64()),
		MachinesPerRack: int(d.I64()),
		SlotsPerMachine: int(d.I64()),
		NICBps:          d.I64(),
	}
	shards := int(d.U32())
	nextJob := d.I64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	c := NewSharded(topo, shards)
	if len(c.shards) != shards {
		return nil, fmt.Errorf("cluster: snapshot shard count %d is not a power of two", shards)
	}
	c.nextJob.Store(int32(nextJob))

	nm := int(d.U32())
	if nm != len(c.machines) {
		return nil, fmt.Errorf("cluster: snapshot has %d machines, topology builds %d", nm, len(c.machines))
	}
	for _, m := range c.machines {
		if healthy := d.Bool(); !healthy {
			m.healthy = false
			c.healthySlots.Add(-int64(m.Slots))
		}
	}

	for _, sh := range c.shards {
		nj := d.Len(8)
		for j := 0; j < nj; j++ {
			job := &Job{
				ID:         JobID(d.I64()),
				Class:      JobClass(d.U8()),
				Priority:   int(d.I64()),
				SubmitTime: d.Dur(),
				remaining:  int(d.I64()),
			}
			nt := d.Len(8)
			job.Tasks = make([]TaskID, 0, nt)
			for k := 0; k < nt; k++ {
				t := decodeTask(d)
				if d.Err() != nil {
					return nil, d.Err()
				}
				job.Tasks = append(job.Tasks, t.ID)
				sh.tasks[t.ID] = t
				switch t.State {
				case TaskPending:
					sh.pending[t.ID] = struct{}{}
					c.numPending.Add(1)
				case TaskRunning:
					m := c.Machine(t.Machine)
					if m == nil {
						return nil, fmt.Errorf("cluster: task %d running on unknown machine %d", t.ID, t.Machine)
					}
					m.running[t.ID] = struct{}{}
					m.reserved += t.NetDemand
				}
			}
			sh.jobs[job.ID] = job
			if job.remaining == 0 {
				sh.done = append(sh.done, job.ID)
			}
		}
		if v >= 2 {
			sh.retiredJobs = d.I64()
			sh.retiredTasks = d.I64()
		}
		ne := d.Len(8)
		for k := 0; k < ne; k++ {
			ev := DecodeEvent(d)
			if ev.Kind == EventTaskEvicted {
				sh.evicted++
			}
			sh.events = append(sh.events, ev)
		}
		c.numEvents.Add(int64(ne))
		c.numEvicted.Add(int64(sh.evicted))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Fingerprint hashes the canonical snapshot encoding. Two clusters with
// identical state — tables, lifecycle fields, machine health, queued
// events — produce identical fingerprints; the crash-recovery equivalence
// tests compare a replayed cluster against the live one with this.
//
//firmament:deterministic
func (c *Cluster) Fingerprint() uint64 {
	var e wal.Enc
	c.EncodeSnapshot(&e)
	h := fnv.New64a()
	h.Write(e.B)
	return h.Sum64()
}

// CountStates tallies tasks by lifecycle state across all shards, counting
// retired tasks as completed — the restore path's accounting self-check
// compares these totals against the journal-derived counters, and every
// task ever submitted is in exactly one of them.
//
//firmament:deterministic
func (c *Cluster) CountStates() (pending, running, completed, failed int) {
	for _, sh := range c.shards {
		sh.mu.RLock()
		// Sorted-ID iteration: the tallies are order-insensitive today, but
		// this walk sits in the deterministic scope and anything added to it
		// (per-task detail, sampled dumps) must come out byte-stable.
		ids := make([]TaskID, 0, len(sh.tasks))
		for id := range sh.tasks {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		completed += int(sh.retiredTasks)
		for _, id := range ids {
			switch sh.tasks[id].State {
			case TaskPending:
				pending++
			case TaskRunning:
				running++
			case TaskCompleted:
				completed++
			case TaskFailed:
				failed++
			}
		}
		sh.mu.RUnlock()
	}
	return
}
