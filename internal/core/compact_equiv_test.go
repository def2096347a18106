package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/wal"
)

// This file pins arc ID compaction against a twin that never compacts. Both
// twins see the same bursts of submissions and the same drains; the tested
// twin's floor is zero, so it renumbers its arcs on every round whose dead
// slots outnumber the live ones. Node IDs never change, so the twins'
// placement tables and potentials must be equal as they stand, and their
// flows equal arc for arc once the renaming is undone, which comparing the
// adjacency rows position by position does: a row lists the same arcs in the
// same order on both sides, under different IDs.

// TestCompactEquivalence checks, for every policy of the update suite, that
// a compacting scheduler makes exactly the decisions of one that never
// compacts: identical placement tables, potentials and renamed flows under
// the deterministic single-solver modes, and equal optimal costs under the
// speculative race, whose winner is timing-dependent. A snapshot of a
// compacted graph must restore to the same Fingerprint.
func TestCompactEquivalence(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	modes := []SolverMode{ModeIncrementalCostScaling, ModeRelaxationOnly, ModeFirmament}
	for _, pol := range equivPolicies() {
		for _, mode := range modes {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", pol.name, mode, seed), func(t *testing.T) {
					runCompactEquiv(t, pol, mode, int64(seed))
				})
			}
		}
	}
}

func runCompactEquiv(t *testing.T, pol equivPolicy, mode SolverMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const gbps = 1000 * 1000 * 1000 / 8
	topo := cluster.Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 3, NICBps: 10 * gbps}
	cfg := DefaultConfig()
	cfg.Mode = mode
	var worlds [2]*equivWorld // worlds[0] compacts whenever it may, worlds[1] never
	floors := [2]int{0, math.MaxInt}
	for i := range worlds {
		cl := cluster.New(topo)
		model := pol.build(cl)
		worlds[i] = &equivWorld{cl: cl, s: NewScheduler(cl, model(), cfg), model: model}
		worlds[i].s.gm.arcFloor = floors[i]
	}
	ref := worlds[0].cl
	var tasks []cluster.TaskID
	running := func() []cluster.TaskID {
		var out []cluster.TaskID
		for _, id := range tasks {
			if ref.Task(id).State == cluster.TaskRunning {
				out = append(out, id)
			}
		}
		return out
	}
	submit := func(now time.Duration) {
		specs := make([]cluster.TaskSpec, 3+rng.Intn(6))
		for i := range specs {
			specs[i] = pol.spec(rng)
		}
		for _, w := range worlds {
			j := w.cl.SubmitJob(cluster.Batch, 0, now, specs)
			if w == worlds[0] {
				tasks = append(tasks, j.Tasks...)
			}
		}
	}
	both := func(what string, op func(w *equivWorld) error) {
		t.Helper()
		for i, w := range worlds {
			if err := op(w); err != nil {
				t.Fatalf("%s on world %d: %v", what, i, err)
			}
		}
	}

	compactions := 0
	now := time.Duration(0)
	for step := 0; step < 90; step++ {
		now += time.Duration(100+rng.Intn(900)) * time.Millisecond
		switch phase := step % 30; {
		case phase < 8: // the burst: jobs arrive faster than slots free up
			submit(now)
			if rng.Intn(2) == 0 {
				submit(now)
			}
		default: // the drain: running tasks finish, a machine comes and goes
			r := running()
			for k := 0; k < 1+rng.Intn(5) && len(r) > 0; k++ {
				i := rng.Intn(len(r))
				id := r[i]
				r = slices.Delete(r, i, i+1)
				both("complete", func(w *equivWorld) error { return w.cl.Complete(id, now) })
			}
			if phase == 20 {
				both("remove machine", func(w *equivWorld) error { return w.cl.RemoveMachine(2, now) })
			}
			if phase == 24 {
				both("restore machine", func(w *equivWorld) error { return w.cl.RestoreMachine(2, now) })
			}
		}

		bound := worlds[0].s.gm.g.ArcIDBound()
		var rounds [2]*Round
		for i, w := range worlds {
			r, err := w.s.Schedule(now)
			if err != nil {
				t.Fatalf("step %d: world %d: %v", step, i, err)
			}
			rounds[i] = r
		}
		if worlds[0].s.gm.g.ArcIDBound() < bound {
			compactions++
		}
		if mode == ModeFirmament {
			// The race may pick a different optimal flow on each side, so
			// the twins agree on the cost, and both enact one side's
			// decisions to stay in the same state.
			if a, b := rounds[0].Stats.Pool.Cost, rounds[1].Stats.Pool.Cost; a != b {
				t.Fatalf("step %d: cost %d, never-compacting twin %d", step, a, b)
			}
			var ds []Decision
			worlds[0].s.ApplyRoundRecorded(rounds[0], now, func(d Decision) { ds = append(ds, d) })
			worlds[1].s.ApplyDecisions(ds, now)
		} else {
			sameSolve(t, step, worlds[0].s.gm, worlds[1].s.gm)
			for i, w := range worlds {
				w.s.ApplyRound(rounds[i], now)
			}
		}
		checkArcRecords(t, worlds[0].s.gm)

		if step%15 == 14 {
			// Snapshot → restore both twins; the compacted graph must come
			// back exactly, and the restored twin keeps compacting.
			for i, w := range worlds {
				before := w.s.Fingerprint()
				var e wal.Enc
				w.s.EncodeSnapshot(&e)
				s, err := RestoreScheduler(w.cl, w.model(), w.s.cfg, wal.NewDec(e.B))
				if err != nil {
					t.Fatalf("step %d: restore world %d: %v", step, i, err)
				}
				if after := s.Fingerprint(); after != before {
					t.Fatalf("step %d: world %d fingerprint %x after restore, %x before", step, i, after, before)
				}
				s.gm.arcFloor = floors[i]
				w.s = s
			}
		}
	}
	t.Logf("%d rounds compacted the arcs", compactions)
	if compactions == 0 {
		t.Fatal("the burst-then-drain schedule never compacted the arcs")
	}
	if b := worlds[1].s.gm.g.ArcIDBound(); worlds[0].s.gm.g.ArcIDBound() >= b {
		t.Fatalf("compacting twin ends with ID bound %d, the other with %d", worlds[0].s.gm.g.ArcIDBound(), b)
	}
}

// sameSolve fails unless the two managers' graphs hold the same solve:
// equal placement tables and potentials by node, and rows that list, slot
// for slot, arcs with the same head, cost and residual.
func sameSolve(t *testing.T, step int, a, b *GraphManager) {
	t.Helper()
	if !slices.Equal(a.ext.placed, b.ext.placed) {
		t.Fatalf("step %d: placement tables differ:\n%v\n%v", step, a.ext.placed, b.ext.placed)
	}
	ga, gb := a.g, b.g
	if ga.NodeIDBound() != gb.NodeIDBound() || ga.NumArcs() != gb.NumArcs() {
		t.Fatalf("step %d: %d nodes/%d arcs, never-compacting twin %d/%d",
			step, ga.NodeIDBound(), ga.NumArcs(), gb.NodeIDBound(), gb.NumArcs())
	}
	for n := 0; n < ga.NodeIDBound(); n++ {
		id := flow.NodeID(n)
		if ga.NodeInUse(id) != gb.NodeInUse(id) || ga.Potential(id) != gb.Potential(id) {
			t.Fatalf("step %d: node %d: live %v potential %d, never-compacting twin %v %d",
				step, n, ga.NodeInUse(id), ga.Potential(id), gb.NodeInUse(id), gb.Potential(id))
		}
		ra, rb := ga.Out(id), gb.Out(id)
		if len(ra) != len(rb) {
			t.Fatalf("step %d: node %d: degree %d, never-compacting twin %d", step, n, len(ra), len(rb))
		}
		for i := range ra {
			x, y := ra[i], rb[i]
			if ga.Head(x) != gb.Head(y) || ga.Cost(x) != gb.Cost(y) || ga.Resid(x) != gb.Resid(y) {
				t.Fatalf("step %d: node %d slot %d: arc %d (head %d cost %d resid %d), twin's arc %d (%d %d %d)",
					step, n, i, x, ga.Head(x), ga.Cost(x), ga.Resid(x), y, gb.Head(y), gb.Cost(y), gb.Resid(y))
			}
		}
	}
}
