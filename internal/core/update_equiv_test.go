package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
	"firmament/internal/storage"
	"firmament/internal/wal"
)

// This file pins the change-proportional graph update against the full
// walk it replaced. The full walk — every task node, every round — lives on
// here, verbatim, as the oracle: a twin scheduler driven by it must stay
// bit-identical (Scheduler.Fingerprint: graph, flow, potentials, node and
// arc IDs, every entity map) to the scheduler under test through seeded
// random schedules of everything that moves a task or a machine.

// fullWalkUpdateRound is UpdateRound as it was before the revisit set.
func fullWalkUpdateRound(gm *GraphManager, now time.Duration) {
	gm.model.BeginRound(now)
	gm.updateAggregators(now)
	fullWalkUpdateTasks(gm, now)
	gm.updateMachineCapacities()
}

func fullWalkUpdateTasks(gm *GraphManager, now time.Duration) {
	ids := make([]cluster.TaskID, 0, len(gm.taskNode))
	for id := range gm.taskNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := gm.cl.Task(id)
		node := gm.taskNode[id]
		gm.setArc(gm.taskUnschedArc[id], gm.model.UnscheduledCost(t, now), 1)
		arcs := gm.taskArcs[id]
		want := gm.model.TaskArcs(t, now)
		seen := make(map[policy.ArcTarget]bool, len(want))
		for _, ta := range want {
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
	}
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

// checkArcRecords verifies that the task→arc records and the graph agree
// in both directions: every record names a live arc from the task's node to
// the target's node, and a task node has no other outgoing arcs.
func checkArcRecords(t *testing.T, gm *GraphManager) {
	t.Helper()
	for tid, arcs := range gm.taskArcs {
		node := gm.taskNode[tid]
		for target, a := range arcs {
			want, ok := gm.aggNode[target.Agg]
			if target.Machine != cluster.InvalidMachine {
				want, ok = gm.machineNode[target.Machine]
			}
			if !ok || !gm.g.ArcInUse(a) || gm.g.Tail(a) != node || gm.g.Head(a) != want {
				t.Fatalf("task %d: stale arc record %+v → arc %d", tid, target, a)
			}
		}
		out := 0
		for a := gm.g.FirstOut(node); a != flow.InvalidArc; a = gm.g.NextOut(a) {
			if gm.g.IsForward(a) {
				out++
			}
		}
		if out != len(arcs)+1 {
			t.Fatalf("task %d: %d outgoing arcs, %d recorded (+1 unscheduled)", tid, out, len(arcs))
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
			gm := worlds[0].s.gm
			checkArcRecords(t, gm)
			if err := gm.sanityCheck(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
