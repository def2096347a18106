package core

import (
	"fmt"
	"hash/fnv"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// This file serialises the scheduler's solver-facing state for durable
// snapshots: the flow graph (with flow and potentials — the warm-start
// capital), the GraphManager's records of the nodes and arcs that stand for
// each machine, task, job and aggregator, and the cost scaling solver's
// scale. Restoring all three lets the first post-restore round run
// SolveIncremental against a graph identical to the one the live run held,
// paying the paper's ~370µs incremental cost instead of the ~25ms
// from-scratch solve (Fig. 11) — which is the entire point of snapshotting
// the graph rather than rebuilding it from cluster state.

const schedSnapVersion = 1

//firmament:deterministic
func encodeAggID(e *wal.Enc, id policy.AggID) {
	e.U8(uint8(id.Kind))
	e.I64(id.Index)
}

//firmament:deterministic
func decodeAggID(d *wal.Dec) policy.AggID {
	return policy.AggID{Kind: policy.AggKind(d.U8()), Index: d.I64()}
}

//firmament:deterministic
func encodeTarget(e *wal.Enc, t policy.ArcTarget) {
	e.I64(int64(t.Machine))
	encodeAggID(e, t.Agg)
}

//firmament:deterministic
func decodeTarget(d *wal.Dec) policy.ArcTarget {
	return policy.ArcTarget{Machine: cluster.MachineID(d.I64()), Agg: decodeAggID(d)}
}

// EncodeSnapshot appends the scheduler's full solver state. The scheduler
// must be quiescent (between rounds on the scheduling goroutine).
//
//firmament:deterministic
func (s *Scheduler) EncodeSnapshot(e *wal.Enc) {
	e.U32(schedSnapVersion)
	s.gm.g.EncodeSnapshot(e)
	e.I64(s.pool.SolverScale())

	gm := s.gm
	e.I64(int64(gm.sink))
	e.I64(gm.NumTasks())

	// Machines in the graph, ascending by ID: node and sink arc.
	machines := 0
	for _, a := range gm.machineSink {
		if a != flow.InvalidArc {
			machines++
		}
	}
	e.U32(uint32(machines))
	for id, a := range gm.machineSink {
		if a != flow.InvalidArc {
			e.I64(int64(id))
			e.I64(int64(gm.g.Tail(a)))
			e.I64(int64(a))
		}
	}

	// Tasks, ascending by ID: node, unscheduled arc and arc records. The
	// arc records are kept sorted by key, here and below.
	tasks := sortedKeys(nil, gm.taskNode)
	e.U32(uint32(len(tasks)))
	for _, id := range tasks {
		n := gm.taskNode[id]
		rec := &gm.tasks[n]
		e.I64(int64(id))
		e.I64(int64(n))
		e.I64(int64(rec.unsched))
		e.U32(uint32(len(rec.arcs)))
		for _, r := range rec.arcs {
			encodeTarget(e, r.target)
			e.I64(int64(r.arc))
		}
	}

	// Jobs with tasks in the graph, ascending by ID: unscheduled aggregator,
	// sink arc and task count.
	jobs := sortedKeys(nil, gm.unschedSink)
	e.U32(uint32(len(jobs)))
	for _, id := range jobs {
		a := gm.unschedSink[id]
		e.I64(int64(id))
		e.I64(int64(gm.g.Tail(a)))
		e.I64(int64(a))
		e.I64(gm.g.Capacity(a))
	}

	// Aggregators with their machine and aggregator arc records.
	e.U32(uint32(len(gm.aggs)))
	for _, agg := range gm.aggs {
		encodeAggID(e, agg.id)
		e.I64(int64(agg.node))
		e.U32(uint32(len(agg.machines)))
		for _, r := range agg.machines {
			e.I64(int64(r.k.machine))
			e.I64(r.k.key)
			e.I64(int64(r.arc))
		}
		e.U32(uint32(len(agg.aggs)))
		for _, r := range agg.aggs {
			encodeAggID(e, r.to)
			e.I64(int64(r.arc))
		}
	}
}

// RestoreScheduler rebuilds a scheduler from EncodeSnapshot bytes, binding
// it to the (already restored) cluster and a freshly constructed policy
// model. The model must be the same policy the snapshot was taken under:
// the graph's aggregator nodes and arc costs encode its decisions.
//
//firmament:deterministic
func RestoreScheduler(cl *cluster.Cluster, model policy.CostModel, cfg Config, d *wal.Dec) (*Scheduler, error) {
	if v := d.U32(); v != schedSnapVersion {
		return nil, fmt.Errorf("core: scheduler snapshot version %d (want %d)", v, schedSnapVersion)
	}
	g, err := flow.DecodeSnapshot(d)
	if err != nil {
		return nil, err
	}
	scale := d.I64()

	gm := newGraphManager(g, cl, model)
	// The snapshot does not carry the revisit set: the first round
	// re-derives every task once and rebuilds it.
	gm.refreshAll, gm.machineEvents = true, true
	gm.sink = flow.NodeID(d.I64())
	numTasks := d.I64()

	// A machine or job record repeats its sink arc's tail (and a job its
	// capacity), so a record that disagrees with the graph is corrupt.
	nm := d.Len(24)
	for i := 0; i < nm; i++ {
		id, n, a := cluster.MachineID(d.I64()), flow.NodeID(d.I64()), flow.ArcID(d.I64())
		if id < 0 || int(id) >= len(gm.machineSink) || gm.machineSink[id] != flow.InvalidArc {
			return nil, fmt.Errorf("core: scheduler snapshot: machine %d outside the cluster or listed twice", id)
		}
		if !gm.isSinkArc(a) || g.Tail(a) != n {
			return nil, fmt.Errorf("core: scheduler snapshot: machine %d on node %d, not the tail of its sink arc %d", id, n, a)
		}
		gm.machineSink[id] = a
	}
	nt := d.Len(28)
	for i := 0; i < nt; i++ {
		id := cluster.TaskID(d.I64())
		n := flow.NodeID(d.I64())
		if n < 0 || int(n) >= g.NodeIDBound() {
			return nil, fmt.Errorf("core: scheduler snapshot: task %d on node %d, outside the graph", id, n)
		}
		rec := gm.setTask(id, n, flow.ArcID(d.I64()))
		rec.arcs = make([]taskArcRec, d.Len(25))
		for k := range rec.arcs {
			rec.arcs[k] = taskArcRec{decodeTarget(d), flow.ArcID(d.I64())}
		}
	}
	if numTasks != gm.NumTasks() {
		return nil, fmt.Errorf("core: scheduler snapshot: %d tasks counted, %d recorded", numTasks, gm.NumTasks())
	}
	nj := d.Len(32)
	for i := 0; i < nj; i++ {
		id, n, a, alive := cluster.JobID(d.I64()), flow.NodeID(d.I64()), flow.ArcID(d.I64()), d.I64()
		if !gm.isSinkArc(a) || g.Tail(a) != n {
			return nil, fmt.Errorf("core: scheduler snapshot: job %d on node %d, not the tail of its sink arc %d", id, n, a)
		}
		if c := g.Capacity(a); c != alive {
			return nil, fmt.Errorf("core: scheduler snapshot: job %d has %d tasks, its sink arc capacity %d", id, alive, c)
		}
		gm.unschedSink[id] = a
	}
	gm.aggs = make([]aggRecord, d.Len(17))
	for i := range gm.aggs {
		agg := &gm.aggs[i]
		agg.id = decodeAggID(d)
		agg.node = flow.NodeID(d.I64())
		agg.machines = make([]machineArcRec, d.Len(24))
		for k := range agg.machines {
			mk := machineArcKey{machine: cluster.MachineID(d.I64()), key: d.I64()}
			agg.machines[k] = machineArcRec{mk, flow.ArcID(d.I64())}
		}
		agg.aggs = make([]aggArcRec, d.Len(17))
		for k := range agg.aggs {
			agg.aggs[k] = aggArcRec{decodeAggID(d), flow.ArcID(d.I64())}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := gm.sanityCheck(); err != nil {
		return nil, fmt.Errorf("core: restored scheduler state inconsistent: %w", err)
	}

	s := newScheduler(cl, gm, cfg)
	s.pool.RestoreSolverScale(scale)
	return s, nil
}

// Fingerprint hashes the scheduler's solver state (graph plus maps) via the
// snapshot encoding; the crash-recovery equivalence tests compare a
// restored-and-replayed scheduler against the uninterrupted one with this.
//
//firmament:deterministic
func (s *Scheduler) Fingerprint() uint64 {
	var e wal.Enc
	s.EncodeSnapshot(&e)
	h := fnv.New64a()
	h.Write(e.B)
	return h.Sum64()
}
