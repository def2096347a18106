// Package core is Firmament's scheduler engine (paper §3, §6): it maintains
// the flow network that encodes the scheduling problem, runs the
// speculative dual-algorithm MCMF solver pool, extracts task placements
// from the optimal flow, and applies them to the cluster.
package core

import (
	"cmp"
	"fmt"
	"slices"
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

// compare orders machine arc keys by (machine, key).
func (k machineArcKey) compare(l machineArcKey) int {
	if c := cmp.Compare(k.machine, l.machine); c != 0 {
		return c
	}
	return cmp.Compare(k.key, l.key)
}

// The arc records: which arc the graph holds for each key a policy lists.
// Every record slice is kept strictly ascending by key — the order the
// snapshot writes them in — so a round's diff against a policy list is one
// merge walk, with no hashing.
type (
	machineArcRec struct {
		k   machineArcKey
		arc flow.ArcID
	}
	aggArcRec struct {
		to  policy.AggID
		arc flow.ArcID
	}
	taskArcRec struct {
		target policy.ArcTarget
		arc    flow.ArcID
	}
)

// aggRecord is one live policy aggregator: its node and the records of its
// arcs to machines and to other aggregators.
type aggRecord struct {
	id       policy.AggID
	node     flow.NodeID
	machines []machineArcRec
	aggs     []aggArcRec
}

// updateScratch is the reusable working storage of UpdateRound: the policy
// lists land in the want buffers, and each merge walk writes the new record
// slice into a spare that it then swaps with the record it replaced.
type updateScratch struct {
	ids     []cluster.TaskID
	waiting []taskRef // tasks updateTasks last saw not running, ascending by ID
	order   []taskRef // ApplyRound's task order
	aggIDs  []policy.AggID
	wantM   []policy.MachineArc
	wantA   []policy.AggArc
	wantT   []policy.TaskArc

	aggs    []aggRecord
	retired []aggRecord
	mrecs   []machineArcRec
	arecs   []aggArcRec
	added   []taskArcRec
	kept    []bool
	dead    []flow.ArcID
}

// taskRec is what the manager knows of one task node beyond the graph.
type taskRec struct {
	id cluster.TaskID
	// runningOn is the machine updateTasks last saw the task running on:
	// InvalidMachine if it saw the task not running or has not seen it yet.
	runningOn cluster.MachineID
	unsched   flow.ArcID   // the arc to the job's unscheduled aggregator
	arcs      []taskArcRec // the policy's arcs, ascending by target
}

// noTask marks the records of nodes that are not task nodes. A zero taskRec
// is not one: its runningOn names machine 0.
const noTask cluster.TaskID = -1

var noTaskRec = taskRec{id: noTask, runningOn: cluster.InvalidMachine, unsched: flow.InvalidArc}

// GraphManager owns the mapping between cluster state and the flow network
// (paper Fig. 4: "the scheduling policy modifies the flow network according
// to workload, cluster, and monitoring data"). It translates cluster events
// into incremental graph changes (§5.2) and performs the two-pass
// flow-network update before each solver run (§6.3).
//
// It holds each fact once and reads the rest off the graph: a machine and a
// job are known by their arc to the sink, whose tail is the machine's node or
// the job's unscheduled aggregator and whose capacity is the machine's slot
// count or the job's number of tasks in the graph.
type GraphManager struct {
	g     *flow.Graph
	cl    *cluster.Cluster
	model policy.CostModel
	hier  policy.HierarchicalCostModel // nil unless the model is hierarchical

	sink flow.NodeID

	// machineSink is, by machine ID, the machine's arc to the sink;
	// InvalidArc while the machine is out of the graph.
	machineSink []flow.ArcID

	taskNode map[cluster.TaskID]flow.NodeID
	tasks    []taskRec // by node ID; noTaskRec for every other node

	unschedSink map[cluster.JobID]flow.ArcID // per job with tasks in the graph

	aggs []aggRecord // live aggregators, ascending by ID

	changes flow.ChangeSet

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

	// described reports that runningOn and upd.waiting hold what the last
	// updateTasks saw, with no event folded since. A new or restored
	// manager, or one that folded events after its update, has them
	// incomplete, and its apply walks every task (applyCandidates).
	described bool

	// Per-round working storage, reused so neither the update nor the apply
	// allocates in proportion to the graph.
	upd updateScratch

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

	// ext is the pinned working storage of ExtractRound, and its output;
	// extraction runs every round, so its bookkeeping must not churn the heap.
	ext extractScratch
}

// NewGraphManager builds the initial flow network for cl: a sink node and
// one node per healthy machine with a slot-capacity arc to the sink.
func NewGraphManager(cl *cluster.Cluster, model policy.CostModel) *GraphManager {
	gm := newGraphManager(flow.NewGraph(cl.NumMachines()*2+16, cl.NumMachines()*4+16), cl, model)
	gm.TaskRemovalHeuristic = true
	gm.sink = gm.g.AddNode(0, flow.KindSink)
	cl.Machines(func(m *cluster.Machine) {
		if m.Healthy() {
			gm.addMachine(m.ID)
		}
	})
	return gm
}

// newGraphManager returns a manager of g with no machines, tasks or jobs.
func newGraphManager(g *flow.Graph, cl *cluster.Cluster, model policy.CostModel) *GraphManager {
	gm := &GraphManager{
		g:           g,
		cl:          cl,
		model:       model,
		machineSink: make([]flow.ArcID, cl.NumMachines()),
		taskNode:    make(map[cluster.TaskID]flow.NodeID),
		unschedSink: make(map[cluster.JobID]flow.ArcID),
		revisit:     make(map[cluster.TaskID]struct{}),
	}
	for i := range gm.machineSink {
		gm.machineSink[i] = flow.InvalidArc
	}
	if h, ok := model.(policy.HierarchicalCostModel); ok {
		gm.hier = h
	}
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
func (gm *GraphManager) NumTasks() int64 { return int64(len(gm.taskNode)) }

// machineNode returns machine id's node, if the machine is in the graph.
func (gm *GraphManager) machineNode(id cluster.MachineID) (flow.NodeID, bool) {
	if id < 0 || int(id) >= len(gm.machineSink) || gm.machineSink[id] == flow.InvalidArc {
		return flow.InvalidNode, false
	}
	return gm.g.Tail(gm.machineSink[id]), true
}

func (gm *GraphManager) addMachine(id cluster.MachineID) {
	if _, ok := gm.machineNode(id); ok {
		return
	}
	n := gm.g.AddNode(0, flow.KindMachine)
	gm.machineSink[id] = gm.g.AddArc(n, gm.sink, int64(gm.cl.Machine(id).Slots), 0)
	gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
}

func (gm *GraphManager) removeMachine(id cluster.MachineID) {
	n, ok := gm.machineNode(id)
	if !ok {
		return
	}
	// Drop aggregator arc records pointing at this machine; the arcs
	// themselves die with the node. An aggregator's records for one machine
	// are a contiguous run of its sorted slice.
	for i := range gm.aggs {
		recs := gm.aggs[i].machines
		lo, _ := slices.BinarySearchFunc(recs, id, func(r machineArcRec, m cluster.MachineID) int {
			return cmp.Compare(r.k.machine, m)
		})
		hi := lo
		for hi < len(recs) && recs[hi].k.machine == id {
			hi++
		}
		gm.aggs[i].machines = slices.Delete(recs, lo, hi)
	}
	gm.dropTaskArcRecords(n, policy.ToMachine(id))
	gm.g.RemoveNode(n)
	gm.machineSink[id] = flow.InvalidArc
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
		if h := gm.g.Head(a); int(h) < len(gm.tasks) {
			rec := &gm.tasks[h]
			if i, ok := slices.BinarySearchFunc(rec.arcs, target, compareTaskArc); ok {
				rec.arcs = slices.Delete(rec.arcs, i, i+1)
			}
		}
	}
}

func compareTaskArc(r taskArcRec, t policy.ArcTarget) int { return r.target.Compare(t) }

// taskAt returns the task whose node is n, if n is a task node.
func (gm *GraphManager) taskAt(n flow.NodeID) (cluster.TaskID, bool) {
	if int(n) < len(gm.tasks) {
		if id := gm.tasks[n].id; id != noTask {
			return id, true
		}
	}
	return noTask, false
}

// setTask records id's node in both directions, with the node's arc to the
// job's unscheduled aggregator, as a task no update has seen yet.
func (gm *GraphManager) setTask(id cluster.TaskID, n flow.NodeID, unsched flow.ArcID) *taskRec {
	gm.taskNode[id] = n
	for len(gm.tasks) <= int(n) {
		gm.tasks = append(gm.tasks, noTaskRec)
	}
	gm.tasks[n] = taskRec{id: id, runningOn: cluster.InvalidMachine, unsched: unsched}
	return &gm.tasks[n]
}

// taskRef is a task and its node, the unit of ApplyRound's walk.
type taskRef struct {
	id   cluster.TaskID
	node flow.NodeID
}

func compareTaskRef(a, b taskRef) int { return cmp.Compare(a.id, b.id) }

// applyCandidates lists, ascending by task ID in reused storage, the tasks
// whose apply against the node-indexed table placed can yield a decision:
// those the last update saw not running, and those the table moves off the
// machine the update last saw them running on. Every other task is still
// running where the table leaves it, unless the cluster moved it after the
// update. That takes an eviction (a preemption, a migration's first half, a
// machine removal), so while one sits undrained, or was folded after the
// update, or before any update has seen the tasks, the list widens to every
// task. Submissions are not evictions: their tasks are not in the graph.
func (gm *GraphManager) applyCandidates(placed []cluster.MachineID) []taskRef {
	order := gm.upd.order[:0]
	if !gm.described || gm.cl.NumQueuedEvictions() > 0 {
		for n := range gm.tasks {
			if id := gm.tasks[n].id; id != noTask {
				order = append(order, taskRef{id, flow.NodeID(n)})
			}
		}
	} else {
		order = append(order, gm.upd.waiting...)
		placed = placed[:len(gm.tasks)] // one bounds check for the loop
		for n := range gm.tasks {
			if m := gm.tasks[n].runningOn; m != cluster.InvalidMachine && placed[n] != m {
				order = append(order, taskRef{gm.tasks[n].id, flow.NodeID(n)})
			}
		}
	}
	slices.SortFunc(order, compareTaskRef)
	gm.upd.order = order
	return order
}

// aggIndex returns id's position in gm.aggs and whether it is live.
func (gm *GraphManager) aggIndex(id policy.AggID) (int, bool) {
	return slices.BinarySearchFunc(gm.aggs, id, func(r aggRecord, id policy.AggID) int {
		return r.id.Compare(id)
	})
}

func (gm *GraphManager) addTask(id cluster.TaskID) {
	if _, ok := gm.taskNode[id]; ok {
		return
	}
	t := gm.cl.Task(id)
	n := gm.g.AddNode(1, flow.KindTask)
	gm.ext.gen++ // a Round's table has no entry for the new node
	js, ok := gm.unschedSink[t.Job]
	if !ok {
		// The job's first task: create its unscheduled aggregator.
		un := gm.g.AddNode(0, flow.KindUnsched)
		js = gm.g.AddArc(un, gm.sink, 0, 0)
		gm.unschedSink[t.Job] = js
		gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: un})
	}
	gm.setTask(id, n, gm.g.AddArc(n, gm.g.Tail(js), 1, 0))
	gm.g.SetArcCapacity(js, gm.g.Capacity(js)+1)
	gm.g.SetSupply(gm.sink, -gm.NumTasks())
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
	gm.tasks[n] = noTaskRec
	gm.ext.gen++ // n's table entry no longer names id
	delete(gm.revisit, id)
	gm.g.SetSupply(gm.sink, -gm.NumTasks())
	gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: n})
	gm.changes.Record(flow.Change{Kind: flow.ChangeSupply, Node: gm.sink})

	js := gm.unschedSink[t.Job]
	if alive := gm.g.Capacity(js) - 1; alive > 0 {
		gm.g.SetArcCapacity(js, alive)
		return
	}
	// Last task of the job: retire its unscheduled aggregator.
	un := gm.g.Tail(js)
	gm.g.RemoveNode(un)
	gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: un})
	delete(gm.unschedSink, t.Job)
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
	gm.described = false
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
//firmament:hotpath
func (gm *GraphManager) UpdateRound(now time.Duration) {
	gm.model.BeginRound(now)
	gm.updateAggregators(now)
	gm.updateTasks(now)
	if gm.machineEvents {
		gm.updateMachineCapacities()
		gm.machineEvents = false
	}
}

// updateAggregators diffs the policy's aggregators, and each one's arcs,
// against the records. The mutation order is the one journals, snapshots
// and arc IDs were built on: new aggregator nodes in list order, then
// retirements ascending, then each live aggregator's arcs in turn.
//
//firmament:deterministic
//firmament:hotpath
func (gm *GraphManager) updateAggregators(now time.Duration) {
	u := &gm.upd
	u.aggIDs = gm.model.Aggregators(u.aggIDs[:0])
	have, next, retired := gm.aggs, u.aggs[:0], u.retired[:0]
	i := 0
	for j, id := range u.aggIDs {
		if j > 0 && u.aggIDs[j-1].Compare(id) >= 0 {
			panic(fmt.Sprintf("core: policy %s: Aggregators not strictly ascending at %v", gm.model.Name(), id))
		}
		for i < len(have) && have[i].id.Compare(id) < 0 {
			retired = append(retired, have[i])
			i++
		}
		if i < len(have) && have[i].id == id {
			next = append(next, have[i])
			i++
			continue
		}
		n := gm.g.AddNode(0, flow.KindAggregator)
		next = append(next, aggRecord{id: id, node: n})
		gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
	}
	retired = append(retired, have[i:]...)
	gm.aggs, u.aggs = next, have[:0]
	// Node removal feeds the graph's free lists, so the retirement order
	// determines the IDs future allocations get: ascending, as collected.
	for k := range retired {
		gm.retireAggregator(&retired[k])
	}
	clear(retired)
	u.retired = retired[:0]
	for k := range gm.aggs {
		agg := &gm.aggs[k]
		u.wantM = gm.model.AggArcs(u.wantM[:0], agg.id, now)
		gm.diffMachineArcs(agg, u.wantM)
		// Aggregator-to-aggregator arcs (e.g. Quincy's X → racks).
		if gm.hier != nil {
			u.wantA = gm.hier.AggToAggArcs(u.wantA[:0], agg.id, now)
			gm.diffAggArcs(agg, u.wantA)
		}
	}
}

// retireAggregator removes an aggregator the policy no longer lists. Its
// arcs die with the node; the records of arcs into it are dropped here.
func (gm *GraphManager) retireAggregator(r *aggRecord) {
	gm.dropTaskArcRecords(r.node, policy.ToAgg(r.id))
	for k := range gm.aggs {
		recs := gm.aggs[k].aggs
		i, ok := slices.BinarySearchFunc(recs, r.id, func(a aggArcRec, id policy.AggID) int {
			return a.to.Compare(id)
		})
		if ok {
			gm.aggs[k].aggs = slices.Delete(recs, i, i+1)
		}
	}
	gm.g.RemoveNode(r.node)
	gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: r.node})
}

// diffMachineArcs merges want, which the policy lists strictly ascending
// by (machine, key), into agg's machine arc records: a listed arc with a
// record is re-priced, one without is added (in list order), and the
// records passed over are the dead arcs, removed after the walk in
// ascending order. Removing them during the walk would hand their IDs to
// later additions through the graph's free lists.
//
//firmament:deterministic
//firmament:hotpath
func (gm *GraphManager) diffMachineArcs(agg *aggRecord, want []policy.MachineArc) {
	u := &gm.upd
	have, out, dead := agg.machines, u.mrecs[:0], u.dead[:0]
	i := 0
	for j := range want {
		ma := &want[j]
		k := machineArcKey{ma.Machine, ma.Key}
		if j > 0 && (machineArcKey{want[j-1].Machine, want[j-1].Key}).compare(k) >= 0 {
			panic(fmt.Sprintf("core: policy %s: AggArcs(%v) not strictly ascending at %+v", gm.model.Name(), agg.id, k))
		}
		for i < len(have) && have[i].k.compare(k) < 0 {
			dead = append(dead, have[i].arc)
			i++
		}
		if i < len(have) && have[i].k == k {
			gm.setArc(have[i].arc, ma.Cost, ma.Capacity)
			out = append(out, have[i])
			i++
			continue
		}
		mn, ok := gm.machineNode(ma.Machine)
		if !ok {
			continue // machine gone
		}
		a := gm.g.AddArc(agg.node, mn, ma.Capacity, ma.Cost)
		out = append(out, machineArcRec{k, a})
		gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
	}
	for ; i < len(have); i++ {
		dead = append(dead, have[i].arc)
	}
	gm.removeArcs(dead)
	agg.machines, u.mrecs, u.dead = out, have[:0], dead[:0]
}

// diffAggArcs is diffMachineArcs for agg's arcs to other aggregators.
//
//firmament:deterministic
//firmament:hotpath
func (gm *GraphManager) diffAggArcs(agg *aggRecord, want []policy.AggArc) {
	u := &gm.upd
	have, out, dead := agg.aggs, u.arecs[:0], u.dead[:0]
	i := 0
	for j := range want {
		aa := &want[j]
		if j > 0 && want[j-1].To.Compare(aa.To) >= 0 {
			panic(fmt.Sprintf("core: policy %s: AggToAggArcs(%v) not strictly ascending at %v", gm.model.Name(), agg.id, aa.To))
		}
		for i < len(have) && have[i].to.Compare(aa.To) < 0 {
			dead = append(dead, have[i].arc)
			i++
		}
		if i < len(have) && have[i].to == aa.To {
			gm.setArc(have[i].arc, aa.Cost, aa.Capacity)
			out = append(out, have[i])
			i++
			continue
		}
		to, ok := gm.aggIndex(aa.To)
		if !ok {
			continue
		}
		a := gm.g.AddArc(agg.node, gm.aggs[to].node, aa.Capacity, aa.Cost)
		out = append(out, aggArcRec{aa.To, a})
		gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
	}
	for ; i < len(have); i++ {
		dead = append(dead, have[i].arc)
	}
	gm.removeArcs(dead)
	agg.aggs, u.arecs, u.dead = out, have[:0], dead[:0]
}

// removeArcs removes arcs in the given order, recording each removal.
func (gm *GraphManager) removeArcs(arcs []flow.ArcID) {
	for _, a := range arcs {
		gm.g.RemoveArc(a)
		gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveArc, Arc: a})
	}
}

// sortedKeys collects m's keys into buf's storage, ascending.
func sortedKeys[K cmp.Ordered, V any](buf []K, m map[K]V) []K {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// updateTasks re-derives the arcs of the revisit set (of every task when
// refreshAll is up) in ascending task-ID order. A task seen running leaves
// the set — including one a caller placed directly, without an event —
// and any other task stays, so its wait cost keeps growing with now. What
// it sees is what the apply's candidate list starts from: the tasks not
// running, in order, and the machine of each running one.
//
//firmament:deterministic
//firmament:hotpath
func (gm *GraphManager) updateTasks(now time.Duration) {
	u := &gm.upd
	if gm.refreshAll {
		gm.refreshAll = false
		u.ids = sortedKeys(u.ids, gm.taskNode)
	} else {
		u.ids = sortedKeys(u.ids, gm.revisit)
	}
	u.waiting = u.waiting[:0]
	for _, id := range u.ids {
		t, n := gm.cl.Task(id), gm.taskNode[id]
		gm.updateTask(t, n, now)
		rec := &gm.tasks[n]
		if t.State == cluster.TaskRunning {
			rec.runningOn = t.Machine
			delete(gm.revisit, id)
		} else {
			rec.runningOn = cluster.InvalidMachine
			gm.revisit[id] = struct{}{}
			u.waiting = append(u.waiting, taskRef{id, n})
		}
	}
	gm.described = true
}

// updateTask diffs the unscheduled cost and policy arcs of t, whose node is
// node, against the graph. TaskArcs carries no ordering
// contract, so each listed target is looked up in the sorted records by
// binary search; the mutation order is that of the aggregator diffs —
// updates and additions in list order, then removals ascending.
//
//firmament:deterministic
//firmament:hotpath
func (gm *GraphManager) updateTask(t *cluster.Task, node flow.NodeID, now time.Duration) {
	u, rec := &gm.upd, &gm.tasks[node]
	// Unscheduled (or preemption) cost.
	gm.setArc(rec.unsched, gm.model.UnscheduledCost(t, now), 1)
	// Policy arcs.
	have := rec.arcs
	u.wantT = gm.model.TaskArcs(u.wantT[:0], t, now)
	u.kept = slices.Grow(u.kept[:0], len(have))[:len(have)]
	clear(u.kept)
	added := u.added[:0]
	for _, ta := range u.wantT {
		cap := ta.Capacity
		if cap == 0 {
			cap = 1
		}
		if i, ok := slices.BinarySearchFunc(have, ta.Target, compareTaskArc); ok {
			u.kept[i] = true
			gm.setArc(have[i].arc, ta.Cost, cap)
			continue
		}
		if i := indexTarget(added, ta.Target); i >= 0 {
			gm.setArc(added[i].arc, ta.Cost, cap) // listed twice
			continue
		}
		dst, ok := gm.targetNode(ta.Target)
		if !ok {
			continue
		}
		a := gm.g.AddArc(node, dst, cap, ta.Cost)
		added = append(added, taskArcRec{ta.Target, a})
		gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
	}
	u.added = added[:0]
	recs := have[:0]
	for i, r := range have {
		if u.kept[i] {
			recs = append(recs, r)
		} else {
			gm.g.RemoveArc(r.arc)
			gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveArc, Arc: r.arc})
		}
	}
	if len(recs) == len(have) && len(added) == 0 {
		return
	}
	recs = append(recs, added...)
	slices.SortFunc(recs, func(a, b taskArcRec) int { return a.target.Compare(b.target) })
	rec.arcs = recs
}

// indexTarget returns the position of t's record in the unsorted recs, or -1.
func indexTarget(recs []taskArcRec, t policy.ArcTarget) int {
	for i, r := range recs {
		if r.target == t {
			return i
		}
	}
	return -1
}

// targetNode resolves an arc target to its node, if the target is live.
func (gm *GraphManager) targetNode(t policy.ArcTarget) (flow.NodeID, bool) {
	if t.Machine >= 0 {
		return gm.machineNode(t.Machine)
	}
	if i, ok := gm.aggIndex(t.Agg); ok {
		return gm.aggs[i].node, true
	}
	return flow.InvalidNode, false
}

// updateMachineCapacities re-reads every machine's slot count, in machine
// order. UpdateRound calls it on rounds that folded a machine event.
//
//firmament:deterministic
func (gm *GraphManager) updateMachineCapacities() {
	for id, a := range gm.machineSink {
		if a == flow.InvalidArc {
			continue
		}
		want := int64(gm.cl.Machine(cluster.MachineID(id)).Slots)
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

// sanityCheck verifies that the records agree with each other and with the
// graph (used by tests and by RestoreScheduler).
func (gm *GraphManager) sanityCheck() error {
	if !gm.g.NodeInUse(gm.sink) || gm.g.Kind(gm.sink) != flow.KindSink {
		return fmt.Errorf("core: sink %d is not a live sink node", gm.sink)
	}
	for id, n := range gm.taskNode {
		if !gm.g.NodeInUse(n) {
			return fmt.Errorf("core: task %d maps to dead node %d", id, n)
		}
		if back, _ := gm.taskAt(n); back != id {
			return fmt.Errorf("core: task %d maps to node %d, which maps back to %d", id, n, back)
		}
		if a := gm.tasks[n].unsched; !gm.g.ArcInUse(a) || !gm.g.IsForward(a) || gm.g.Tail(a) != n {
			return fmt.Errorf("core: task %d: unscheduled arc %d does not leave its node %d", id, a, n)
		}
	}
	nodes := 0
	for n := range gm.tasks {
		if gm.tasks[n].id != noTask {
			nodes++
		}
	}
	if nodes != len(gm.taskNode) {
		return fmt.Errorf("core: %d task nodes indexed by node, %d by task", nodes, len(gm.taskNode))
	}
	for id, a := range gm.machineSink {
		if a != flow.InvalidArc && !gm.isSinkArc(a) {
			return fmt.Errorf("core: machine %d: arc %d is not a live arc to the sink", id, a)
		}
	}
	for id, a := range gm.unschedSink {
		if !gm.isSinkArc(a) || gm.g.Capacity(a) <= 0 {
			return fmt.Errorf("core: job %d: arc %d is not a live arc to the sink with capacity", id, a)
		}
	}
	// The merge walks rely on every record slice being strictly ascending.
	if i := unordered(len(gm.aggs), func(i int) int { return gm.aggs[i-1].id.Compare(gm.aggs[i].id) }); i > 0 {
		return fmt.Errorf("core: aggregators not strictly ascending at %v", gm.aggs[i].id)
	}
	for _, agg := range gm.aggs {
		m, a := agg.machines, agg.aggs
		if i := unordered(len(m), func(i int) int { return m[i-1].k.compare(m[i].k) }); i > 0 {
			return fmt.Errorf("core: aggregator %v: machine arc records not strictly ascending at %+v", agg.id, m[i].k)
		}
		if i := unordered(len(a), func(i int) int { return a[i-1].to.Compare(a[i].to) }); i > 0 {
			return fmt.Errorf("core: aggregator %v: aggregator arc records not strictly ascending at %v", agg.id, a[i].to)
		}
	}
	for _, rec := range gm.tasks {
		recs := rec.arcs
		if i := unordered(len(recs), func(i int) int { return recs[i-1].target.Compare(recs[i].target) }); i > 0 {
			return fmt.Errorf("core: task %d: arc records not strictly ascending at %+v", rec.id, recs[i].target)
		}
	}
	return nil
}

// isSinkArc reports whether a is a live forward arc from a live node to the
// sink.
func (gm *GraphManager) isSinkArc(a flow.ArcID) bool {
	return gm.g.ArcInUse(a) && gm.g.IsForward(a) && gm.g.Head(a) == gm.sink && gm.g.NodeInUse(gm.g.Tail(a))
}

// unordered returns the first i in [1, n) with cmp(i) >= 0, where cmp(i)
// compares element i-1 with element i, or 0 if there is none.
func unordered(n int, cmp func(i int) int) int {
	for i := 1; i < n; i++ {
		if cmp(i) >= 0 {
			return i
		}
	}
	return 0
}
