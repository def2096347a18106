package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// This file serialises the scheduler's solver-facing state for durable
// snapshots: the flow graph (with flow and potentials — the warm-start
// capital), the GraphManager's entity↔node maps, and the cost scaling
// solver's scale. Restoring all three lets the first post-restore round run
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
	e.I64(gm.numTasks)

	// machineNode + machineSink, sorted by machine ID.
	machines := make([]cluster.MachineID, 0, len(gm.machineNode))
	for id := range gm.machineNode {
		machines = append(machines, id)
	}
	sort.Slice(machines, func(i, j int) bool { return machines[i] < machines[j] })
	e.U32(uint32(len(machines)))
	for _, id := range machines {
		e.I64(int64(id))
		e.I64(int64(gm.machineNode[id]))
		e.I64(int64(gm.machineSink[id]))
	}

	// taskNode + taskUnschedArc + taskArcs, sorted by task ID. The arc
	// records are kept sorted by key, here and below.
	tasks := make([]cluster.TaskID, 0, len(gm.taskNode))
	for id := range gm.taskNode {
		tasks = append(tasks, id)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	e.U32(uint32(len(tasks)))
	for _, id := range tasks {
		e.I64(int64(id))
		e.I64(int64(gm.taskNode[id]))
		e.I64(int64(gm.taskUnschedArc[id]))
		recs := gm.taskArcs[id]
		e.U32(uint32(len(recs)))
		for _, r := range recs {
			encodeTarget(e, r.target)
			e.I64(int64(r.arc))
		}
	}

	// unschedNode + unschedSink + jobAlive, sorted by job ID.
	jobs := make([]cluster.JobID, 0, len(gm.unschedNode))
	for id := range gm.unschedNode {
		jobs = append(jobs, id)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i] < jobs[j] })
	e.U32(uint32(len(jobs)))
	for _, id := range jobs {
		e.I64(int64(id))
		e.I64(int64(gm.unschedNode[id]))
		e.I64(int64(gm.unschedSink[id]))
		e.I64(gm.jobAlive[id])
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

	gm := &GraphManager{
		g:              g,
		cl:             cl,
		model:          model,
		machineNode:    make(map[cluster.MachineID]flow.NodeID),
		machineSink:    make(map[cluster.MachineID]flow.ArcID),
		taskNode:       make(map[cluster.TaskID]flow.NodeID),
		unschedNode:    make(map[cluster.JobID]flow.NodeID),
		unschedSink:    make(map[cluster.JobID]flow.ArcID),
		jobAlive:       make(map[cluster.JobID]int64),
		taskUnschedArc: make(map[cluster.TaskID]flow.ArcID),
		taskArcs:       make(map[cluster.TaskID][]taskArcRec),
		revisit:        make(map[cluster.TaskID]struct{}),

		// The snapshot does not carry the revisit set: the first round
		// re-derives every task once and rebuilds it.
		refreshAll:    true,
		machineEvents: true,

		TaskRemovalHeuristic: cfg.TaskRemovalHeuristic,
	}
	if h, ok := model.(policy.HierarchicalCostModel); ok {
		gm.hier = h
	}
	gm.sink = flow.NodeID(d.I64())
	gm.numTasks = d.I64()

	nm := d.Len(24)
	for i := 0; i < nm; i++ {
		id := cluster.MachineID(d.I64())
		n := flow.NodeID(d.I64())
		gm.machineNode[id] = n
		gm.machineSink[id] = flow.ArcID(d.I64())
	}
	nt := d.Len(28)
	for i := 0; i < nt; i++ {
		id := cluster.TaskID(d.I64())
		n := flow.NodeID(d.I64())
		if n < 0 || int(n) >= g.NodeIDBound() {
			return nil, fmt.Errorf("core: scheduler snapshot: task %d on node %d, outside the graph", id, n)
		}
		gm.setTaskNode(id, n)
		gm.taskUnschedArc[id] = flow.ArcID(d.I64())
		recs := make([]taskArcRec, d.Len(25))
		for k := range recs {
			recs[k] = taskArcRec{decodeTarget(d), flow.ArcID(d.I64())}
		}
		gm.taskArcs[id] = recs
	}
	nj := d.Len(32)
	for i := 0; i < nj; i++ {
		id := cluster.JobID(d.I64())
		gm.unschedNode[id] = flow.NodeID(d.I64())
		gm.unschedSink[id] = flow.ArcID(d.I64())
		gm.jobAlive[id] = d.I64()
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

	pool := NewSolverPool(cfg.Mode)
	pool.PriceRefine = cfg.PriceRefine
	pool.Options.Alpha = cfg.Alpha
	pool.Options.ArcPrioritization = cfg.ArcPrioritization
	pool.RestoreSolverScale(scale)
	return &Scheduler{cl: cl, gm: gm, pool: pool, cfg: cfg}, nil
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
