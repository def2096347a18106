package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
	"firmament/internal/storage"
	"firmament/internal/wal"
)

// This file pins the graph update against the two designs it replaced,
// which live on here, verbatim, as the oracle: the full walk (every task
// node, every round) and the map-keyed diffs (each policy list diffed
// against a map of arc records through a seen set, dead arcs sorted and
// removed after). A twin scheduler driven by the oracle must stay
// bit-identical (Scheduler.Fingerprint: graph, flow, potentials, node and
// arc IDs, every entity map) to the scheduler under test through seeded
// random schedules of everything that moves a task or a machine. The
// oracle rebuilds its maps from the sorted records each round and writes
// them back sorted, so the twin shares the snapshot format.

// fullWalkUpdateRound is UpdateRound as it was before the revisit set and
// the merge walks.
func fullWalkUpdateRound(gm *GraphManager, now time.Duration) {
	gm.model.BeginRound(now)
	mapDiffUpdateAggregators(gm, now)
	fullWalkUpdateTasks(gm, now)
	gm.updateMachineCapacities()
}

// mapDiffUpdateAggregators is updateAggregators on map-keyed records.
func mapDiffUpdateAggregators(gm *GraphManager, now time.Duration) {
	aggNode := make(map[policy.AggID]flow.NodeID)
	aggMachineArcs := make(map[policy.AggID]map[machineArcKey]flow.ArcID)
	aggAggArcs := make(map[policy.AggID]map[policy.AggID]flow.ArcID)
	for _, agg := range gm.aggs {
		aggNode[agg.id] = agg.node
		aggMachineArcs[agg.id] = make(map[machineArcKey]flow.ArcID)
		for _, r := range agg.machines {
			aggMachineArcs[agg.id][r.k] = r.arc
		}
		aggAggArcs[agg.id] = make(map[policy.AggID]flow.ArcID)
		for _, r := range agg.aggs {
			aggAggArcs[agg.id][r.to] = r.arc
		}
	}

	desired := gm.model.Aggregators(nil)
	want := make(map[policy.AggID]bool, len(desired))
	for _, id := range desired {
		want[id] = true
		if _, ok := aggNode[id]; !ok {
			n := gm.g.AddNode(0, flow.KindAggregator)
			aggNode[id] = n
			aggMachineArcs[id] = make(map[machineArcKey]flow.ArcID)
			aggAggArcs[id] = make(map[policy.AggID]flow.ArcID)
			gm.changes.Record(flow.Change{Kind: flow.ChangeAddNode, Node: n})
		}
	}
	retired := keysMissingFrom(aggNode, want)
	sortAggIDs(retired)
	for _, id := range retired {
		n := aggNode[id]
		gm.dropTaskArcRecords(n, policy.ToAgg(id))
		for _, from := range desired {
			delete(aggAggArcs[from], id)
		}
		gm.g.RemoveNode(n)
		delete(aggNode, id)
		delete(aggMachineArcs, id)
		delete(aggAggArcs, id)
		gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveNode, Node: n})
	}
	for _, id := range desired {
		node := aggNode[id]
		arcs := aggMachineArcs[id]
		wantArcs := gm.model.AggArcs(nil, id, now)
		seen := make(map[machineArcKey]bool, len(wantArcs))
		for _, ma := range wantArcs {
			mn, ok := gm.machineNode(ma.Machine)
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
		if gm.hier != nil {
			aarcs := aggAggArcs[id]
			wantAgg := gm.hier.AggToAggArcs(nil, id, now)
			seenAgg := make(map[policy.AggID]bool, len(wantAgg))
			for _, aa := range wantAgg {
				dst, ok := aggNode[aa.To]
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

	// Write the records back, sorted.
	ids := make([]policy.AggID, 0, len(aggNode))
	for id := range aggNode {
		ids = append(ids, id)
	}
	sortAggIDs(ids)
	gm.aggs = nil
	for _, id := range ids {
		agg := aggRecord{id: id, node: aggNode[id]}
		for k, a := range aggMachineArcs[id] {
			agg.machines = append(agg.machines, machineArcRec{k, a})
		}
		sort.Slice(agg.machines, func(i, j int) bool {
			mi, mj := agg.machines[i].k, agg.machines[j].k
			return mi.machine < mj.machine || mi.machine == mj.machine && mi.key < mj.key
		})
		for to, a := range aggAggArcs[id] {
			agg.aggs = append(agg.aggs, aggArcRec{to, a})
		}
		sort.Slice(agg.aggs, func(i, j int) bool { return aggLess(agg.aggs[i].to, agg.aggs[j].to) })
		gm.aggs = append(gm.aggs, agg)
	}
}

// fullWalkUpdateTasks re-derives every task's arcs on map-keyed records.
func fullWalkUpdateTasks(gm *GraphManager, now time.Duration) {
	aggNode := make(map[policy.AggID]flow.NodeID, len(gm.aggs))
	for _, agg := range gm.aggs {
		aggNode[agg.id] = agg.node
	}
	ids := make([]cluster.TaskID, 0, len(gm.taskNode))
	for id := range gm.taskNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := gm.cl.Task(id)
		node := gm.taskNode[id]
		rec := &gm.tasks[node]
		gm.setArc(rec.unsched, gm.model.UnscheduledCost(t, now), 1)
		arcs := make(map[policy.ArcTarget]flow.ArcID)
		for _, r := range rec.arcs {
			arcs[r.target] = r.arc
		}
		want := gm.model.TaskArcs(nil, t, now)
		seen := make(map[policy.ArcTarget]bool, len(want))
		for _, ta := range want {
			var dst flow.NodeID
			var ok bool
			if ta.Target.Machine != cluster.InvalidMachine && ta.Target.Machine >= 0 {
				dst, ok = gm.machineNode(ta.Target.Machine)
			} else {
				dst, ok = aggNode[ta.Target.Agg]
			}
			if !ok {
				continue
			}
			cap := ta.Capacity
			if cap == 0 {
				cap = 1
			}
			seen[ta.Target] = true
			if a, exists := arcs[ta.Target]; exists {
				gm.setArc(a, ta.Cost, cap)
			} else {
				a := gm.g.AddArc(node, dst, cap, ta.Cost)
				arcs[ta.Target] = a
				gm.changes.Record(flow.Change{Kind: flow.ChangeAddArc, Arc: a})
			}
		}
		var dead []policy.ArcTarget
		for target := range arcs {
			if !seen[target] {
				dead = append(dead, target)
			}
		}
		sort.Slice(dead, func(i, j int) bool { return targetLess(dead[i], dead[j]) })
		for _, target := range dead {
			a := arcs[target]
			gm.g.RemoveArc(a)
			delete(arcs, target)
			gm.changes.Record(flow.Change{Kind: flow.ChangeRemoveArc, Arc: a})
		}
		// Write the records back, sorted.
		recs := make([]taskArcRec, 0, len(arcs))
		for target, a := range arcs {
			recs = append(recs, taskArcRec{target, a})
		}
		sort.Slice(recs, func(i, j int) bool { return targetLess(recs[i].target, recs[j].target) })
		rec.arcs = recs
	}
}

// keysMissingFrom returns the keys of have that want lacks, in no order.
func keysMissingFrom[K comparable, V, W any](have map[K]V, want map[K]W) []K {
	var out []K
	for k := range have {
		if _, ok := want[k]; !ok {
			out = append(out, k)
		}
	}
	return out
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

// equivWorld is one of the two twins: a cluster, its scheduler, and the
// recipe for a fresh policy model (RestoreScheduler wants one).
type equivWorld struct {
	cl       *cluster.Cluster
	s        *Scheduler
	model    func() policy.CostModel
	fullWalk bool
}

// update folds pending events and updates the graph: UpdateOnly, with the
// oracle substituted on the full-walk twin.
func (w *equivWorld) update(now time.Duration) {
	if !w.fullWalk {
		w.s.UpdateOnly(now)
		return
	}
	w.s.gm.ApplyClusterEvents()
	fullWalkUpdateRound(w.s.gm, now)
}

// solve finishes a round the way Scheduler.schedule does.
func (w *equivWorld) solve(t *testing.T) *Round {
	t.Helper()
	changes := w.s.gm.Changes()
	_, err := w.s.pool.Solve(w.s.gm.Graph(), changes)
	changes.Reset()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return &Round{Mappings: w.s.gm.ExtractPlacements()}
}

// restore swaps the scheduler for one rebuilt from its own snapshot.
func (w *equivWorld) restore(t *testing.T) {
	t.Helper()
	var e wal.Enc
	w.s.EncodeSnapshot(&e)
	s, err := RestoreScheduler(w.cl, w.model(), w.s.cfg, wal.NewDec(e.B))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	w.s = s
}

// checkQuiescent asserts claim (a): right after an update, re-deriving
// every task at the same instant finds nothing left to change. The revisit
// set, which must hold every task not running, is put back afterwards, so
// the check cannot heal a set that lost a task — the twin comparison has to
// see that.
func checkQuiescent(t *testing.T, gm *GraphManager, now time.Duration) {
	t.Helper()
	for id := range gm.taskNode {
		_, due := gm.revisit[id]
		if st := gm.cl.Task(id).State; st != cluster.TaskRunning && !due {
			t.Fatalf("task %d is %s but not in the revisit set", id, st)
		}
	}
	saved := maps.Clone(gm.revisit)
	before := gm.changes.Len()
	gm.refreshAll, gm.machineEvents = true, true
	gm.UpdateRound(now)
	if extra := gm.changes.Len() - before; extra != 0 {
		t.Fatalf("forced full refresh recorded %d further changes: %+v", extra, gm.changes.Changes()[before:])
	}
	gm.revisit = saved
}

// checkArcRecords verifies that the arc records and the graph agree in both
// directions — every record names a live arc from its owner's node to the
// target's node, and the owner has no other outgoing arcs — and, through
// sanityCheck, that every record slice is strictly ascending.
func checkArcRecords(t *testing.T, gm *GraphManager) {
	t.Helper()
	if err := gm.sanityCheck(); err != nil {
		t.Fatal(err)
	}
	check := func(owner string, node flow.NodeID, a flow.ArcID, head flow.NodeID, ok bool) {
		t.Helper()
		if !ok || !gm.g.ArcInUse(a) || gm.g.Tail(a) != node || gm.g.Head(a) != head {
			t.Fatalf("%s: stale arc record → arc %d", owner, a)
		}
	}
	outDegree := func(node flow.NodeID) int {
		out := 0
		for a := gm.g.FirstOut(node); a != flow.InvalidArc; a = gm.g.NextOut(a) {
			if gm.g.IsForward(a) {
				out++
			}
		}
		return out
	}
	for node, rec := range gm.tasks {
		if _, ok := gm.taskNode[rec.id]; !ok && len(rec.arcs) > 0 {
			t.Fatalf("arc records on node %d, which holds no task", node)
		}
	}
	for tid, node := range gm.taskNode {
		recs := gm.tasks[node].arcs
		for _, r := range recs {
			head, ok := gm.targetNode(r.target)
			check(fmt.Sprintf("task %d target %+v", tid, r.target), node, r.arc, head, ok)
		}
		if out := outDegree(node); out != len(recs)+1 {
			t.Fatalf("task %d: %d outgoing arcs, %d recorded (+1 unscheduled)", tid, out, len(recs))
		}
	}
	for _, agg := range gm.aggs {
		if !gm.g.NodeInUse(agg.node) {
			t.Fatalf("aggregator %v: dead node %d", agg.id, agg.node)
		}
		for _, r := range agg.machines {
			head, ok := gm.machineNode(r.k.machine)
			check(fmt.Sprintf("aggregator %v machine arc %+v", agg.id, r.k), agg.node, r.arc, head, ok)
		}
		for _, r := range agg.aggs {
			head, ok := gm.targetNode(policy.ToAgg(r.to))
			check(fmt.Sprintf("aggregator %v arc to %v", agg.id, r.to), agg.node, r.arc, head, ok)
		}
		if out, n := outDegree(agg.node), len(agg.machines)+len(agg.aggs); out != n {
			t.Fatalf("aggregator %v: %d outgoing arcs, %d recorded", agg.id, out, n)
		}
	}
}

type equivPolicy struct {
	name  string
	build func(cl *cluster.Cluster) func() policy.CostModel
	spec  func(rng *rand.Rand) cluster.TaskSpec
}

const equivFiles = 6

func equivPolicies() []equivPolicy {
	const gbps = 1000 * 1000 * 1000 / 8
	return []equivPolicy{
		{
			name: "load-spread",
			build: func(cl *cluster.Cluster) func() policy.CostModel {
				return func() policy.CostModel { return policy.NewLoadSpread(cl) }
			},
			spec: func(*rand.Rand) cluster.TaskSpec { return cluster.TaskSpec{InputFile: -1} },
		},
		{
			name: "quincy",
			build: func(cl *cluster.Cluster) func() policy.CostModel {
				// Small blocks, low threshold: tasks carry several machine
				// and rack preference arcs, and running tasks migration arcs.
				store := storage.NewStore(cl, storage.Config{BlockSize: 1 << 28, Seed: 11})
				for i := 0; i < equivFiles; i++ {
					store.AddFile(int64(i+1) << 29)
				}
				return func() policy.CostModel {
					q := policy.NewQuincy(cl, store)
					q.PreferenceThreshold = 0.02
					return q
				}
			},
			spec: func(rng *rand.Rand) cluster.TaskSpec {
				f := int64(rng.Intn(equivFiles+1)) - 1 // -1: no input
				return cluster.TaskSpec{InputFile: f, InputSize: (f + 2) << 29}
			},
		},
		{
			name: "network-aware",
			build: func(cl *cluster.Cluster) func() policy.CostModel {
				oracle := fakeOracle{1: 4 * gbps, 5: 9 * gbps}
				return func() policy.CostModel { return policy.NewNetworkAware(cl, oracle) }
			},
			spec: func(rng *rand.Rand) cluster.TaskSpec {
				return cluster.TaskSpec{InputFile: -1, NetDemand: int64(rng.Intn(4)) * gbps / 2}
			},
		},
	}
}

// TestUpdateEquivalence drives the scheduler under test and a full-walk
// twin through the same seeded schedule and checks, after every step, that
// (a) a forced full refresh finds nothing to change and (b) the two
// fingerprints are equal.
func TestUpdateEquivalence(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	// Single-solver modes only: the twins must make the same decisions, and
	// ModeFirmament's race is timing-dependent.
	modes := []SolverMode{ModeIncrementalCostScaling, ModeRelaxationOnly, ModeQuincy}
	for _, pol := range equivPolicies() {
		for seed := 0; seed < seeds; seed++ {
			mode := modes[seed%len(modes)]
			t.Run(fmt.Sprintf("%s/%s/seed%d", pol.name, mode, seed), func(t *testing.T) {
				runEquivSchedule(t, pol, mode, int64(seed))
			})
		}
	}
}

func runEquivSchedule(t *testing.T, pol equivPolicy, mode SolverMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const gbps = 1000 * 1000 * 1000 / 8
	topo := cluster.Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 3, NICBps: 10 * gbps}
	cfg := DefaultConfig()
	cfg.Mode = mode
	var worlds [2]*equivWorld
	for i := range worlds {
		cl := cluster.New(topo)
		model := pol.build(cl)
		worlds[i] = &equivWorld{cl: cl, s: NewScheduler(cl, model(), cfg), model: model, fullWalk: i == 1}
	}
	ref := worlds[0].cl // ops are drawn from the tested world's state
	both := func(what string, op func(w *equivWorld) error) {
		t.Helper()
		for i, w := range worlds {
			if err := op(w); err != nil {
				t.Fatalf("%s on world %d: %v", what, i, err)
			}
		}
	}

	var tasks []cluster.TaskID
	inState := func(st cluster.TaskState) []cluster.TaskID {
		var out []cluster.TaskID
		for _, id := range tasks {
			if ref.Task(id).State == st {
				out = append(out, id)
			}
		}
		return out
	}
	freeMachine := func(not cluster.MachineID) (cluster.MachineID, bool) {
		var free []cluster.MachineID
		ref.Machines(func(m *cluster.Machine) {
			if m.Healthy() && m.Running() < m.Slots && m.ID != not {
				free = append(free, m.ID)
			}
		})
		if len(free) == 0 {
			return 0, false
		}
		return free[rng.Intn(len(free))], true
	}
	var removed []cluster.MachineID

	now := time.Duration(0)
	for step := 0; step < 120; step++ {
		now += time.Duration(rng.Intn(3000)) * time.Millisecond // wait costs step every 2 s
		updated := false
		switch op := rng.Intn(20); {
		case op < 4: // submit
			class := cluster.Batch
			if rng.Intn(6) == 0 {
				class = cluster.Service
			}
			specs := make([]cluster.TaskSpec, 1+rng.Intn(7))
			for i := range specs {
				specs[i] = pol.spec(rng)
			}
			for _, w := range worlds {
				j := w.cl.SubmitJob(class, 0, now, specs)
				if w == worlds[0] {
					tasks = append(tasks, j.Tasks...)
				}
			}
		case op < 9: // solve + apply
			for _, w := range worlds {
				w.update(now)
				if !w.fullWalk {
					checkQuiescent(t, w.s.gm, now)
				}
				w.s.ApplyRound(w.solve(t), now)
			}
			updated = true
		case op < 11: // update without solving (template-only rounds)
			for _, w := range worlds {
				w.update(now)
				if !w.fullWalk {
					checkQuiescent(t, w.s.gm, now)
				}
			}
			updated = true
		case op < 13: // place directly, behind the scheduler's back
			pending := inState(cluster.TaskPending)
			if m, ok := freeMachine(cluster.InvalidMachine); ok && len(pending) > 0 {
				id := pending[rng.Intn(len(pending))]
				both("place", func(w *equivWorld) error { return w.cl.Place(id, m, now) })
			}
		case op < 15: // complete
			if running := inState(cluster.TaskRunning); len(running) > 0 {
				id := running[rng.Intn(len(running))]
				both("complete", func(w *equivWorld) error { return w.cl.Complete(id, now) })
			}
		case op < 16: // preempt
			if running := inState(cluster.TaskRunning); len(running) > 0 {
				id := running[rng.Intn(len(running))]
				both("preempt", func(w *equivWorld) error { return w.cl.Preempt(id, now) })
			}
		case op < 17: // migrate
			if running := inState(cluster.TaskRunning); len(running) > 0 {
				id := running[rng.Intn(len(running))]
				if m, ok := freeMachine(ref.Task(id).Machine); ok {
					both("migrate", func(w *equivWorld) error {
						if err := w.cl.Preempt(id, now); err != nil {
							return err
						}
						return w.cl.Place(id, m, now)
					})
				}
			}
		case op < 18: // machine remove
			if len(removed) < 4 {
				m := cluster.MachineID(rng.Intn(ref.NumMachines()))
				if !slices.Contains(removed, m) {
					removed = append(removed, m)
					both("remove machine", func(w *equivWorld) error { return w.cl.RemoveMachine(m, now) })
				}
			}
		case op < 19: // machine restore
			if len(removed) > 0 {
				i := rng.Intn(len(removed))
				m := removed[i]
				removed = slices.Delete(removed, i, i+1)
				both("restore machine", func(w *equivWorld) error { return w.cl.RestoreMachine(m, now) })
			}
		default: // snapshot → RestoreScheduler, at solved quiescence only
			if worlds[0].s.PendingChanges() == 0 {
				for _, w := range worlds {
					w.restore(t)
				}
			}
		}

		if a, b := worlds[0].s.Fingerprint(), worlds[1].s.Fingerprint(); a != b {
			t.Fatalf("step %d (t=%v): fingerprint %x, full-walk twin %x", step, now, a, b)
		}
		if updated {
			checkArcRecords(t, worlds[0].s.gm)
		}
	}
}

// reversedArcs is LoadSpread with its aggregator arc list reversed, which
// breaks the CostModel ordering contract.
type reversedArcs struct{ *policy.LoadSpread }

func (reversedArcs) Name() string { return "reversed" }

func (p reversedArcs) AggArcs(dst []policy.MachineArc, id policy.AggID, now time.Duration) []policy.MachineArc {
	n := len(dst)
	dst = p.LoadSpread.AggArcs(dst, id, now)
	slices.Reverse(dst[n:])
	return dst
}

// TestUnorderedPolicyListPanics checks that the merge walk refuses a policy
// list out of order, naming the policy, rather than diffing it wrongly.
func TestUnorderedPolicyListPanics(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	gm := NewGraphManager(cl, reversedArcs{policy.NewLoadSpread(cl)})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "policy reversed: AggArcs") {
			t.Fatalf("recovered %q, want a panic naming the policy and the list", msg)
		}
	}()
	gm.UpdateRound(0)
}
