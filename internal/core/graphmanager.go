// Package core is Firmament's scheduler engine (paper §3, §6): it maintains
// the flow network that encodes the scheduling problem, runs the
// speculative dual-algorithm MCMF solver pool, extracts task placements
// from the optimal flow, and applies them to the cluster.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
)

// machineArcKey identifies one aggregator→machine arc: policies may emit
// parallel arcs to the same machine distinguished by MachineArc.Key (e.g.
// graduated occupancy-level pricing).
type machineArcKey struct {
	machine cluster.MachineID
	key     int64
}

// GraphManager owns the mapping between cluster state and the flow network
// (paper Fig. 4: "the scheduling policy modifies the flow network according
// to workload, cluster, and monitoring data"). It translates cluster events
// into incremental graph changes (§5.2) and performs the two-pass
// flow-network update before each solver run (§6.3).
type GraphManager struct {
	g     *flow.Graph
	cl    *cluster.Cluster
	model policy.CostModel
	hier  policy.HierarchicalCostModel // nil unless the model is hierarchical

	sink flow.NodeID

	machineNode map[cluster.MachineID]flow.NodeID
	machineSink map[cluster.MachineID]flow.ArcID
	nodeMachine map[flow.NodeID]cluster.MachineID

	taskNode map[cluster.TaskID]flow.NodeID
	nodeTask map[flow.NodeID]cluster.TaskID

	unschedNode map[cluster.JobID]flow.NodeID
	unschedSink map[cluster.JobID]flow.ArcID
	jobAlive    map[cluster.JobID]int64

	aggNode map[policy.AggID]flow.NodeID

	taskUnschedArc map[cluster.TaskID]flow.ArcID
	taskArcs       map[cluster.TaskID]map[policy.ArcTarget]flow.ArcID
	aggMachineArcs map[policy.AggID]map[machineArcKey]flow.ArcID
	aggAggArcs     map[policy.AggID]map[policy.AggID]flow.ArcID

	changes  flow.ChangeSet
	numTasks int64

	// revisit is the set of tasks updateTasks re-derives next round: those
	// last seen not running (only a waiting task's costs move with time)
	// plus those a submit or evict event named since. A running task
	// changes state only through events, and its arcs are a function of its
	// record (policy.CostModel contract), so everything outside the set
	// would diff to nothing. refreshAll widens one round to every task: a
	// re-added machine can be the target of arcs that were skipped while it
	// was gone, and a restored scheduler has no set yet.
	revisit       map[cluster.TaskID]struct{}
	refreshAll    bool
	machineEvents bool // a machine event was folded since the last round

	// Per-round working storage, reused so neither the update nor the apply
	// allocates in proportion to the graph.
	ids  []cluster.TaskID
	seen map[policy.ArcTarget]struct{}

	// TaskRemovalHeuristic enables the §5.3.2 optimization: when a task
	// node is removed, its unit of flow is drained along its path to the
	// sink first, preserving feasibility for incremental cost scaling.
	TaskRemovalHeuristic bool

	// EventTap, when non-nil, observes every event batch ApplyClusterEvents
	// drains, before it is folded into the graph. The serving layer's
	// journal records the batches so that replay can feed the graph update
	// the exact same event groupings the live run saw — a submission that
	// straddled a round boundary is replayed into the same round it
	// originally landed in. The slice is only valid during the call.
	EventTap func([]cluster.Event)

	// DrainLog, when non-nil, records the surviving arcs the removal
	// heuristic drained, so experiments can reconstruct the non-drained
	// state on a graph clone (Figure 12b's controlled comparison).
	DrainLog *[]flow.ArcID

	// ext is the pinned working storage of ExtractPlacements; extraction
	// runs every round, so its bookkeeping must not churn the heap.
	ext extractScratch
}

// NewGraphManager builds the initial flow network for cl: a sink node and
// one node per healthy machine with a slot-capacity arc to the sink.
func NewGraphManager(cl *cluster.Cluster, model policy.CostModel) *GraphManager {
	gm := &GraphManager{
		g:              flow.NewGraph(cl.NumMachines()*2+16, cl.NumMachines()*4+16),
		cl:             cl,
		model:          model,
		machineNode:    make(map[cluster.MachineID]flow.NodeID),
		machineSink:    make(map[cluster.MachineID]flow.ArcID),
		nodeMachine:    make(map[flow.NodeID]cluster.MachineID),
		taskNode:       make(map[cluster.TaskID]flow.NodeID),
		nodeTask:       make(map[flow.NodeID]cluster.TaskID),
		unschedNode:    make(map[cluster.JobID]flow.NodeID),
		unschedSink:    make(map[cluster.JobID]flow.ArcID),
		jobAlive:       make(map[cluster.JobID]int64),
		aggNode:        make(map[policy.AggID]flow.NodeID),
		taskUnschedArc: make(map[cluster.TaskID]flow.ArcID),
		taskArcs:       make(map[cluster.TaskID]map[policy.ArcTarget]flow.ArcID),
		aggMachineArcs: make(map[policy.AggID]map[machineArcKey]flow.ArcID),
		aggAggArcs:     make(map[policy.AggID]map[policy.AggID]flow.ArcID),
		revisit:        make(map[cluster.TaskID]struct{}),
		seen:           make(map[policy.ArcTarget]struct{}),

		TaskRemovalHeuristic: true,
	}
	if h, ok := model.(policy.HierarchicalCostModel); ok {
		gm.hier = h
	}
	gm.sink = gm.g.AddNode(0, flow.KindSink)
	cl.Machines(func(m *cluster.Machine) {
		if m.Healthy() {
			gm.addMachine(m.ID)
		}
	})
	return gm
}

// Graph exposes the managed flow network (the solver pool operates on it).
func (gm *GraphManager) Graph() *flow.Graph { return gm.g }

// Changes exposes the change set accumulated since the last Reset.
func (gm *GraphManager) Changes() *flow.ChangeSet { return &gm.changes }

// CostModel returns the policy the graph is shaped by. The serving layer
// uses it to discover whether the policy opts into template caching.
func (gm *GraphManager) CostModel() policy.CostModel { return gm.model }

// NumTasks returns the number of task nodes currently in the graph.
func (gm *GraphManager) NumTasks() int64 { return gm.numTasks }

func (gm *GraphManager) addMachine(id cluster.MachineID) {
	if _, ok := gm.machineNode[id]; ok {
		return
	}
	n := gm.g.AddNode(0, flow.KindMachine)
	gm.machineNode[id] = n
	gm.nodeMachine[n] = id
	a := gm.g.AddArc(n, gm.sink, int64(gm.cl.Machine(id).Slots), 0)
	gm.machineSink[id] = a
	gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
}

func (gm *GraphManager) removeMachine(id cluster.MachineID) {
	n, ok := gm.machineNode[id]
	if !ok {
		return
	}
	// Drop aggregator arc records pointing at this machine; the arcs
	// themselves die with the node.
	for _, arcs := range gm.aggMachineArcs {
		for k := range arcs {
			if k.machine == id {
				delete(arcs, k)
			}
		}
	}
	gm.dropTaskArcRecords(n, policy.ToMachine(id))
	gm.g.RemoveNode(n)
	delete(gm.machineNode, id)
	delete(gm.machineSink, id)
	delete(gm.nodeMachine, n)
	gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: n})
}

// dropTaskArcRecords forgets every task's arc record for target, whose
// node n is about to be removed. The tasks holding such an arc are exactly
// the tails of n's incoming arcs, so the graph's own adjacency is the
// reverse index: the cost is n's degree, not the number of tasks.
func (gm *GraphManager) dropTaskArcRecords(n flow.NodeID, target policy.ArcTarget) {
	for a := gm.g.FirstOut(n); a != flow.InvalidArc; a = gm.g.NextOut(a) {
		if gm.g.IsForward(a) {
			continue
		}
		if tid, ok := gm.nodeTask[gm.g.Head(a)]; ok {
			delete(gm.taskArcs[tid], target)
		}
	}
}

// ensureUnsched returns the unscheduled aggregator node for a job,
// creating it (and its sink arc) on first use.
func (gm *GraphManager) ensureUnsched(j cluster.JobID) flow.NodeID {
	if n, ok := gm.unschedNode[j]; ok {
		return n
	}
	n := gm.g.AddNode(0, flow.KindUnsched)
	a := gm.g.AddArc(n, gm.sink, 0, 0)
	gm.unschedNode[j] = n
	gm.unschedSink[j] = a
	gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
	return n
}

func (gm *GraphManager) addTask(id cluster.TaskID) {
	if _, ok := gm.taskNode[id]; ok {
		return
	}
	t := gm.cl.Task(id)
	n := gm.g.AddNode(1, flow.KindTask)
	gm.taskNode[id] = n
	gm.nodeTask[n] = id
	gm.taskArcs[id] = make(map[policy.ArcTarget]flow.ArcID)
	un := gm.ensureUnsched(t.Job)
	gm.taskUnschedArc[id] = gm.g.AddArc(n, un, 1, 0)
	gm.jobAlive[t.Job]++
	gm.g.SetArcCapacity(gm.unschedSink[t.Job], gm.jobAlive[t.Job])
	gm.numTasks++
	gm.g.SetSupply(gm.sink, -gm.numTasks)
	gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
	gm.changes.Record(flow.Change{Kind: flow.ChangeSupply, Node: gm.sink})
	gm.revisit[id] = struct{}{}
}

func (gm *GraphManager) removeTask(id cluster.TaskID) {
	n, ok := gm.taskNode[id]
	if !ok {
		return
	}
	if gm.TaskRemovalHeuristic {
		gm.drainTaskFlow(n)
	}
	t := gm.cl.Task(id)
	gm.g.RemoveNode(n)
	delete(gm.taskNode, id)
	delete(gm.nodeTask, n)
	delete(gm.taskArcs, id)
	delete(gm.taskUnschedArc, id)
	delete(gm.revisit, id)
	gm.numTasks--
	gm.g.SetSupply(gm.sink, -gm.numTasks)
	gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: n})
	gm.changes.Record(flow.Change{Kind: flow.ChangeSupply, Node: gm.sink})

	gm.jobAlive[t.Job]--
	if gm.jobAlive[t.Job] <= 0 {
		// Last task of the job: retire its unscheduled aggregator.
		if un, ok := gm.unschedNode[t.Job]; ok {
			gm.g.RemoveNode(un)
			gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: un})
		}
		delete(gm.unschedNode, t.Job)
		delete(gm.unschedSink, t.Job)
		delete(gm.jobAlive, t.Job)
	} else {
		gm.g.SetArcCapacity(gm.unschedSink[t.Job], gm.jobAlive[t.Job])
	}
}

// drainTaskFlow implements the efficient task removal heuristic (paper
// §5.3.2): reconstruct the (unit) flow the task sends to the sink and
// remove it hop by hop, so deleting the node afterwards leaves a feasible
// flow and incremental cost scaling does not pay to restore feasibility.
func (gm *GraphManager) drainTaskFlow(taskNode flow.NodeID) {
	cur := taskNode
	for cur != gm.sink {
		var carrier flow.ArcID = flow.InvalidArc
		for a := gm.g.FirstOut(cur); a != flow.InvalidArc; a = gm.g.NextOut(a) {
			if gm.g.IsForward(a) && gm.g.Flow(a) > 0 {
				carrier = a
				break
			}
		}
		if carrier == flow.InvalidArc {
			return // task had no flow (never scheduled in last solution)
		}
		next := gm.g.Head(carrier)
		gm.g.Push(gm.g.Reverse(carrier), 1)
		if gm.DrainLog != nil && cur != taskNode {
			*gm.DrainLog = append(*gm.DrainLog, carrier)
		}
		cur = next
	}
}

// ApplyClusterEvents drains the cluster's sharded event journals and folds
// each batch into the graph, returning the number of events applied. The
// cluster holds each shard lock only for a buffer swap, never while the
// graph mutates, so the whole graph update — and the solve that follows —
// executes under no cluster lock and concurrent submitters proceed
// unimpeded (the lock-decoupled round structure of the serving layer).
func (gm *GraphManager) ApplyClusterEvents() int {
	n := 0
	gm.cl.DrainEventShards(func(events []cluster.Event) {
		if gm.EventTap != nil {
			gm.EventTap(events)
		}
		gm.ApplyEvents(events)
		n += len(events)
	})
	return n
}

// ApplyEvents folds a batch of cluster events into the graph. All cluster
// events reduce to supply, capacity, and cost changes (paper §5.2).
func (gm *GraphManager) ApplyEvents(events []cluster.Event) {
	for _, ev := range events {
		switch ev.Kind {
		case cluster.EventTaskSubmitted:
			gm.addTask(ev.Task)
		case cluster.EventTaskCompleted:
			gm.removeTask(ev.Task)
		case cluster.EventTaskEvicted:
			// The task stays in the graph; its arcs are rebuilt by the next
			// UpdateRound since its state changed to pending.
			if _, ok := gm.taskNode[ev.Task]; ok {
				gm.revisit[ev.Task] = struct{}{}
			}
		case cluster.EventMachineAdded:
			gm.addMachine(ev.Machine)
			gm.refreshAll, gm.machineEvents = true, true
		case cluster.EventMachineRemoved:
			gm.removeMachine(ev.Machine)
			gm.machineEvents = true
		}
	}
}

// UpdateRound performs the second update traversal (paper §6.3): it asks
// the policy for the desired arcs of every aggregator and of every task
// whose arcs can have moved, and diffs them against the graph, recording
// every change for the incremental solvers. Its cost follows what changed
// (docs/solver.md, "Graph update cost model"), and the change order is a
// function of cluster state alone: journals and crash replay depend on it.
//
//firmament:deterministic
func (gm *GraphManager) UpdateRound(now time.Duration) {
	gm.model.BeginRound(now)
	gm.updateAggregators(now)
	gm.updateTasks(now)
	if gm.machineEvents {
		gm.updateMachineCapacities()
		gm.machineEvents = false
	}
}

//firmament:deterministic
func (gm *GraphManager) updateAggregators(now time.Duration) {
	desired := gm.model.Aggregators()
	want := make(map[policy.AggID]bool, len(desired))
	for _, id := range desired {
		want[id] = true
		if _, ok := gm.aggNode[id]; !ok {
			n := gm.g.AddNode(0, flow.KindAggregator)
			gm.aggNode[id] = n
			gm.aggMachineArcs[id] = make(map[machineArcKey]flow.ArcID)
			gm.aggAggArcs[id] = make(map[policy.AggID]flow.ArcID)
			gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
		}
	}
	// Retire aggregators the policy no longer wants, in sorted order: node
	// removal feeds the graph's free lists, so removal order determines the
	// IDs future allocations get — map iteration order here would make
	// otherwise identical runs diverge (the crash-recovery replay relies on
	// graph mutations being a pure function of cluster state).
	retired := keysMissingFrom(gm.aggNode, want)
	sortAggIDs(retired)
	for _, id := range retired {
		n := gm.aggNode[id]
		// Arc records pointing at this aggregator die with it.
		gm.dropTaskArcRecords(n, policy.ToAgg(id))
		for _, from := range desired {
			delete(gm.aggAggArcs[from], id)
		}
		gm.g.RemoveNode(n)
		delete(gm.aggNode, id)
		delete(gm.aggMachineArcs, id)
		delete(gm.aggAggArcs, id)
		gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: n})
	}
	// Diff each aggregator's machine arcs.
	for _, id := range desired {
		node := gm.aggNode[id]
		arcs := gm.aggMachineArcs[id]
		wantArcs := gm.model.AggArcs(id, now)
		seen := make(map[machineArcKey]bool, len(wantArcs))
		for _, ma := range wantArcs {
			mn, ok := gm.machineNode[ma.Machine]
			if !ok {
				continue // machine gone
			}
			k := machineArcKey{ma.Machine, ma.Key}
			seen[k] = true
			if a, ok := arcs[k]; ok {
				gm.setArc(a, ma.Cost, ma.Capacity)
			} else {
				a := gm.g.AddArc(node, mn, ma.Capacity, ma.Cost)
				arcs[k] = a
				gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
			}
		}
		dead := keysMissingFrom(arcs, seen)
		sort.Slice(dead, func(i, j int) bool {
			if dead[i].machine != dead[j].machine {
				return dead[i].machine < dead[j].machine
			}
			return dead[i].key < dead[j].key
		})
		for _, k := range dead {
			a := arcs[k]
			gm.g.RemoveArc(a)
			delete(arcs, k)
			gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveArc, Arc: a})
		}
		// Aggregator-to-aggregator arcs (e.g. Quincy's X → racks).
		if gm.hier != nil {
			aarcs := gm.aggAggArcs[id]
			wantAgg := gm.hier.AggToAggArcs(id, now)
			seenAgg := make(map[policy.AggID]bool, len(wantAgg))
			for _, aa := range wantAgg {
				dst, ok := gm.aggNode[aa.To]
				if !ok {
					continue
				}
				seenAgg[aa.To] = true
				if a, ok := aarcs[aa.To]; ok {
					gm.setArc(a, aa.Cost, aa.Capacity)
				} else {
					a := gm.g.AddArc(node, dst, aa.Capacity, aa.Cost)
					aarcs[aa.To] = a
					gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
				}
			}
			deadAgg := keysMissingFrom(aarcs, seenAgg)
			sortAggIDs(deadAgg)
			for _, to := range deadAgg {
				a := aarcs[to]
				gm.g.RemoveArc(a)
				delete(aarcs, to)
				gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveArc, Arc: a})
			}
		}
	}
}

// keysMissingFrom returns the keys of have that want lacks, in no order:
// callers sort them before acting on them.
//
//firmament:deterministic
func keysMissingFrom[K comparable, V, W any](have map[K]V, want map[K]W) []K {
	var out []K
	//firmament:ignore detmaprange a filter keeps or drops each key on its own; the callers sort what is kept
	for k := range have {
		if _, ok := want[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// sortedIDs collects m's keys into buf's storage, ascending.
func sortedIDs[V any](buf []cluster.TaskID, m map[cluster.TaskID]V) []cluster.TaskID {
	buf = buf[:0]
	for id := range m {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf
}

// updateTasks re-derives the arcs of the revisit set (of every task when
// refreshAll is up) in ascending task-ID order. A task seen running leaves
// the set — including one a caller placed directly, without an event —
// and any other task stays, so its wait cost keeps growing with now.
//
//firmament:deterministic
func (gm *GraphManager) updateTasks(now time.Duration) {
	if gm.refreshAll {
		gm.refreshAll = false
		gm.ids = sortedIDs(gm.ids, gm.taskNode)
	} else {
		gm.ids = sortedIDs(gm.ids, gm.revisit)
	}
	for _, id := range gm.ids {
		t := gm.cl.Task(id)
		gm.updateTask(t, now)
		if t.State == cluster.TaskRunning {
			delete(gm.revisit, id)
		} else {
			gm.revisit[id] = struct{}{}
		}
	}
}

// updateTask diffs one task's unscheduled cost and policy arcs against
// the graph.
//
//firmament:deterministic
func (gm *GraphManager) updateTask(t *cluster.Task, now time.Duration) {
	node := gm.taskNode[t.ID]
	// Unscheduled (or preemption) cost.
	gm.setArc(gm.taskUnschedArc[t.ID], gm.model.UnscheduledCost(t, now), 1)
	// Policy arcs.
	arcs := gm.taskArcs[t.ID]
	clear(gm.seen)
	for _, ta := range gm.model.TaskArcs(t, now) {
		var dst flow.NodeID
		var ok bool
		if ta.Target.Machine != cluster.InvalidMachine && ta.Target.Machine >= 0 {
			dst, ok = gm.machineNode[ta.Target.Machine]
		} else {
			dst, ok = gm.aggNode[ta.Target.Agg]
		}
		if !ok {
			continue
		}
		cap := ta.Capacity
		if cap == 0 {
			cap = 1
		}
		gm.seen[ta.Target] = struct{}{}
		if a, exists := arcs[ta.Target]; exists {
			gm.setArc(a, ta.Cost, cap)
		} else {
			a := gm.g.AddArc(node, dst, cap, ta.Cost)
			arcs[ta.Target] = a
			gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
		}
	}
	dead := keysMissingFrom(arcs, gm.seen)
	sort.Slice(dead, func(i, j int) bool { return targetLess(dead[i], dead[j]) })
	for _, target := range dead {
		a := arcs[target]
		gm.g.RemoveArc(a)
		delete(arcs, target)
		gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveArc, Arc: a})
	}
}

// aggLess orders aggregator IDs by (kind, index).
func aggLess(a, b policy.AggID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Index < b.Index
}

func sortAggIDs(ids []policy.AggID) {
	sort.Slice(ids, func(i, j int) bool { return aggLess(ids[i], ids[j]) })
}

// targetLess orders arc targets: machine targets by ID first, then
// aggregator targets by (kind, index).
func targetLess(a, b policy.ArcTarget) bool {
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	return aggLess(a.Agg, b.Agg)
}

// updateMachineCapacities re-reads every machine's slot count, in machine
// order. UpdateRound calls it on rounds that folded a machine event.
//
//firmament:deterministic
func (gm *GraphManager) updateMachineCapacities() {
	var ids []cluster.MachineID
	for id := range gm.machineSink {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		a := gm.machineSink[id]
		want := int64(gm.cl.Machine(id).Slots)
		if got := gm.g.Capacity(a); got != want {
			gm.g.SetArcCapacity(a, want)
			gm.changes.Record(flow.Change{Kind: flow.ChangeArcCapacity, Arc: a, Old: got, New: want})
		}
	}
}

// setArc updates an arc's cost and capacity if they differ, recording
// changes.
func (gm *GraphManager) setArc(a flow.ArcID, cost policy.Cost, capacity int64) {
	if old := gm.g.Cost(a); old != cost {
		gm.g.SetArcCost(a, cost)
		gm.changes.Record(flow.Change{Kind: flow.ChangeArcCost, Arc: a, Old: old, New: cost})
	}
	if old := gm.g.Capacity(a); old != capacity {
		gm.g.SetArcCapacity(a, capacity)
		gm.changes.Record(flow.Change{Kind: flow.ChangeArcCapacity, Arc: a, Old: old, New: capacity})
	}
}

// SwapGraphForExperiment temporarily replaces the managed graph with g,
// which must be a clone of it (identical node and arc IDs), and returns
// the previous graph. The early-termination experiment (paper Figure 10)
// uses this to extract intermediate placements from a solver snapshot with
// the manager's node mappings.
func (gm *GraphManager) SwapGraphForExperiment(g *flow.Graph) *flow.Graph {
	old := gm.g
	gm.g = g
	return old
}

// sanityCheck verifies internal map consistency (used by tests).
func (gm *GraphManager) sanityCheck() error {
	if int64(len(gm.taskNode)) != gm.numTasks {
		return fmt.Errorf("core: task count mismatch: %d nodes vs %d counted", len(gm.taskNode), gm.numTasks)
	}
	for id, n := range gm.taskNode {
		if !gm.g.NodeInUse(n) {
			return fmt.Errorf("core: task %d maps to dead node %d", id, n)
		}
	}
	for id, n := range gm.machineNode {
		if !gm.g.NodeInUse(n) {
			return fmt.Errorf("core: machine %d maps to dead node %d", id, n)
		}
	}
	return nil
}
