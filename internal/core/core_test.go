package core

import (
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/policy"
	"firmament/internal/storage"
)

func smallCluster() *cluster.Cluster {
	return cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 2})
}

func allModes() []SolverMode {
	return []SolverMode{ModeFirmament, ModeRelaxationOnly, ModeIncrementalCostScaling, ModeQuincy}
}

func newTestScheduler(cl *cluster.Cluster, mode SolverMode) *Scheduler {
	cfg := DefaultConfig()
	cfg.Mode = mode
	return NewScheduler(cl, policy.NewLoadSpread(cl), cfg)
}

func TestSchedulerPlacesAllTasksWhenCapacityAvailable(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cl := smallCluster()
			sched := newTestScheduler(cl, mode)
			cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 10))
			_, ap, err := sched.RunOnce(time.Second)
			if err != nil {
				t.Fatalf("RunOnce: %v", err)
			}
			if ap.Placed != 10 || ap.Unscheduled != 0 {
				t.Fatalf("placed=%d unscheduled=%d, want 10/0", ap.Placed, ap.Unscheduled)
			}
			if cl.NumRunning() != 10 || cl.NumPending() != 0 {
				t.Fatalf("running=%d pending=%d", cl.NumRunning(), cl.NumPending())
			}
			if err := sched.GraphManager().sanityCheck(); err != nil {
				t.Fatal(err)
			}
			if err := sched.GraphManager().Graph().CheckFeasible(); err != nil {
				t.Fatalf("graph infeasible after round: %v", err)
			}
		})
	}
}

func TestSchedulerLeavesOverflowUnscheduled(t *testing.T) {
	cl := smallCluster() // 16 slots
	sched := newTestScheduler(cl, ModeRelaxationOnly)
	cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 20))
	_, ap, err := sched.RunOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Placed != 16 || ap.Unscheduled != 4 {
		t.Fatalf("placed=%d unscheduled=%d, want 16/4", ap.Placed, ap.Unscheduled)
	}
}

func TestSchedulerPlacesWaitersAfterCompletions(t *testing.T) {
	cl := smallCluster()
	sched := newTestScheduler(cl, ModeFirmament)
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 20))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	// Complete every running task; the 4 waiting tasks must then place.
	for _, id := range job.Tasks {
		if cl.Task(id).State == cluster.TaskRunning {
			cl.Complete(id, time.Second)
		}
	}
	_, ap, err := sched.RunOnce(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Placed != 4 {
		t.Fatalf("placed=%d after completions, want 4", ap.Placed)
	}
	if err := sched.GraphManager().sanityCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSpreadBalances(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 8})
	sched := newTestScheduler(cl, ModeQuincy)
	cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 16))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	// 16 tasks across 4 machines with per-task load costs: optimum is 4
	// per machine... but a single aggregated arc prices all slots of a
	// machine equally within one round, so we only require spreading: no
	// machine should be empty and none should exceed its slots.
	cl.Machines(func(m *cluster.Machine) {
		if m.Running() == 0 {
			t.Fatalf("machine %d empty: load spreading failed", m.ID)
		}
		if m.Running() > m.Slots {
			t.Fatalf("machine %d oversubscribed", m.ID)
		}
	})
}

func TestLoadSpreadPrefersEmptierMachines(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 8})
	sched := newTestScheduler(cl, ModeQuincy)
	// Pre-load machine 0 with 4 tasks.
	pre := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 4))
	for _, id := range pre.Tasks {
		cl.Place(id, 0, 0)
	}
	cl.DrainEvents(nil) // the scheduler sees them as already placed
	// Note: tasks placed outside a round have no task nodes; re-add them.
	// Instead submit through the scheduler path: two rounds.
	cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 2))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	if cl.Machine(1).Running() != 2 {
		t.Fatalf("machine 1 has %d tasks, want the 2 new ones (machine 0 pre-loaded)", cl.Machine(1).Running())
	}
}

func TestQuincyPolicyPrefersDataLocality(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 4})
	store := storage.NewStore(cl, storage.Config{BlockSize: 1 << 30, Replication: 1, Seed: 5})
	q := policy.NewQuincy(cl, store)
	cfg := DefaultConfig()
	cfg.Mode = ModeFirmament
	sched := NewScheduler(cl, q, cfg)

	file := store.AddFile(4 << 30) // 4 blocks, 1 replica each
	prefs := store.MachinePreferences(file, 0.01)
	if len(prefs) == 0 {
		t.Fatal("no preferences for test file")
	}
	cl.SubmitJob(cluster.Batch, 0, 0, []cluster.TaskSpec{
		{InputFile: file, InputSize: 4 << 30},
	})
	_, ap, err := sched.RunOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Placed != 1 {
		t.Fatalf("placed = %d, want 1", ap.Placed)
	}
	// The task must land on a machine holding some of its data (the
	// preference arcs are strictly cheaper than the X fallback).
	var placedOn cluster.MachineID = cluster.InvalidMachine
	cl.Machines(func(m *cluster.Machine) {
		if m.Running() > 0 {
			placedOn = m.ID
		}
	})
	if store.MachineLocality(file, placedOn) == 0 {
		t.Fatalf("task placed on machine %d with no local data", placedOn)
	}
}

func TestQuincyServicePreemptsBatch(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	q := policy.NewQuincy(cl, store)
	cfg := DefaultConfig()
	cfg.Mode = ModeRelaxationOnly
	sched := NewScheduler(cl, q, cfg)

	batch := cl.SubmitJob(cluster.Batch, 0, 0, []cluster.TaskSpec{
		{InputFile: -1}, {InputFile: -1}, {InputFile: -1}, {InputFile: -1},
	})
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	if cl.NumRunning() != 4 {
		t.Fatalf("running = %d, want 4 (cluster full)", cl.NumRunning())
	}
	// A service job arrives on the full cluster: its huge unscheduled cost
	// exceeds the batch preemption penalty, so batch tasks must yield.
	cl.SubmitJob(cluster.Service, 10, time.Second, []cluster.TaskSpec{
		{InputFile: -1}, {InputFile: -1},
	})
	_, ap, err := sched.RunOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Preempted == 0 && ap.Migrated == 0 {
		t.Fatalf("no batch tasks preempted for the service job: %+v", ap)
	}
	serviceRunning := 0
	for _, jid := range []cluster.JobID{1} {
		for _, tid := range cl.Job(jid).Tasks {
			if cl.Task(tid).State == cluster.TaskRunning {
				serviceRunning++
			}
		}
	}
	if serviceRunning != 2 {
		t.Fatalf("service tasks running = %d, want 2", serviceRunning)
	}
	_ = batch
}

func TestNetworkAwareAvoidsLoadedNICs(t *testing.T) {
	const gbps = 1000 * 1000 * 1000 / 8
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 4, NICBps: 10 * gbps})
	oracle := fakeOracle{0: 9 * gbps} // machine 0's NIC is nearly saturated
	na := policy.NewNetworkAware(cl, oracle)
	cfg := DefaultConfig()
	cfg.Mode = ModeFirmament
	sched := NewScheduler(cl, na, cfg)

	cl.SubmitJob(cluster.Batch, 0, 0, []cluster.TaskSpec{
		{NetDemand: 2 * gbps}, {NetDemand: 2 * gbps},
	})
	_, ap, err := sched.RunOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Placed != 2 {
		t.Fatalf("placed = %d, want 2", ap.Placed)
	}
	if cl.Machine(0).Running() != 0 {
		t.Fatalf("machine 0 (saturated NIC) received %d tasks", cl.Machine(0).Running())
	}
}

type fakeOracle map[cluster.MachineID]int64

func (f fakeOracle) IngressUsage(m cluster.MachineID) int64 { return f[m] }

func TestMachineFailureEvictsAndReschedules(t *testing.T) {
	cl := smallCluster()
	sched := newTestScheduler(cl, ModeFirmament)
	cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 8))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	victim := cluster.MachineID(0)
	evicted := cl.Machine(victim).Running()
	if evicted == 0 {
		t.Skip("no tasks landed on machine 0")
	}
	cl.RemoveMachine(victim, time.Second)
	_, ap, err := sched.RunOnce(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Placed != evicted {
		t.Fatalf("replaced %d tasks after failure, want %d", ap.Placed, evicted)
	}
	if cl.Machine(victim).Running() != 0 {
		t.Fatal("tasks placed on failed machine")
	}
	if err := sched.GraphManager().sanityCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestModesAgreeOnPlacementCost(t *testing.T) {
	// All solver configurations must find the same optimal cost on the
	// same scheduling problem.
	costs := map[SolverMode]int64{}
	for _, mode := range allModes() {
		cl := cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 3, SlotsPerMachine: 2})
		store := storage.NewStore(cl, storage.Config{BlockSize: 1 << 28, Seed: 77})
		q := policy.NewQuincy(cl, store)
		cfg := DefaultConfig()
		cfg.Mode = mode
		sched := NewScheduler(cl, q, cfg)
		specs := make([]cluster.TaskSpec, 9)
		for i := range specs {
			f := store.AddFile(int64(i+1) << 28)
			specs[i] = cluster.TaskSpec{InputFile: f, InputSize: int64(i+1) << 28}
		}
		cl.SubmitJob(cluster.Batch, 0, 0, specs)
		r, err := sched.Schedule(0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		costs[mode] = r.Stats.Pool.Cost
	}
	want := costs[ModeQuincy]
	for mode, c := range costs {
		if c != want {
			t.Fatalf("mode %v cost %d != Quincy cost %d (full: %v)", mode, c, want, costs)
		}
	}
}

func TestTaskRemovalHeuristicKeepsFeasibility(t *testing.T) {
	cl := smallCluster()
	sched := newTestScheduler(cl, ModeIncrementalCostScaling)
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 8))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	// Complete half the tasks; with the heuristic the drained graph must
	// still be feasible before the next solve.
	for i, id := range job.Tasks {
		if i%2 == 0 && cl.Task(id).State == cluster.TaskRunning {
			cl.Complete(id, time.Second)
		}
	}
	gm := sched.GraphManager()
	gm.ApplyClusterEvents()
	if err := gm.Graph().CheckFeasible(); err != nil {
		t.Fatalf("graph infeasible after heuristic-drained removals: %v", err)
	}
}

// TestTaskRemovalWithoutHeuristicBreaksFeasibility strands the flow the
// removal heuristic drained by pushing it back along the logged arcs, as
// Figure 12b's controlled comparison does: the graph is then infeasible,
// and incremental cost scaling must still recover.
func TestTaskRemovalWithoutHeuristicBreaksFeasibility(t *testing.T) {
	cl := smallCluster()
	sched := newTestScheduler(cl, ModeIncrementalCostScaling)
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 8))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	cl.Complete(job.Tasks[0], time.Second)
	gm := sched.GraphManager()
	var drained []flow.ArcID
	gm.DrainLog = &drained
	gm.ApplyClusterEvents()
	gm.DrainLog = nil
	if len(drained) == 0 {
		t.Fatal("removing a running task drained no flow")
	}
	g := gm.Graph()
	for _, a := range drained {
		if g.ArcInUse(a) && g.Resid(a) > 0 {
			g.Push(a, 1)
		}
	}
	if err := g.CheckFeasible(); err == nil {
		t.Fatal("expected infeasibility without the removal heuristic")
	}
	// The incremental solver must still recover.
	if _, _, err := sched.RunOnce(2 * time.Second); err != nil {
		t.Fatalf("incremental solve after raw removal: %v", err)
	}
}

func TestSchedulerDeterministicMappings(t *testing.T) {
	run := func() map[cluster.TaskID]cluster.MachineID {
		cl := smallCluster()
		store := storage.NewStore(cl, storage.Config{BlockSize: 1 << 28, Seed: 9})
		sched := NewScheduler(cl, policy.NewQuincy(cl, store), Config{Mode: ModeQuincy})
		specs := make([]cluster.TaskSpec, 12)
		for i := range specs {
			f := store.AddFile(1 << 30)
			specs[i] = cluster.TaskSpec{InputFile: f, InputSize: 1 << 30}
		}
		job := cl.SubmitJob(cluster.Batch, 0, 0, specs)
		r, err := sched.Schedule(0)
		if err != nil {
			t.Fatal(err)
		}
		mappings := make(map[cluster.TaskID]cluster.MachineID)
		for _, id := range job.Tasks {
			if m, ok := r.Machine(id); ok {
				mappings[id] = m
			}
		}
		return mappings
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("mapping sizes differ: %d vs %d", len(a), len(b))
	}
	for id, m := range a {
		if b[id] != m {
			t.Fatalf("task %d mapped to %d and %d in identical runs", id, m, b[id])
		}
	}
}

func TestManyRoundsLifecycle(t *testing.T) {
	// Grind a scheduler through alternating submissions and completions;
	// everything must stay consistent.
	cl := smallCluster()
	sched := newTestScheduler(cl, ModeFirmament)
	now := time.Duration(0)
	var live []cluster.TaskID
	for round := 0; round < 20; round++ {
		now += time.Second
		job := cl.SubmitJob(cluster.Batch, 0, now, make([]cluster.TaskSpec, 3))
		live = append(live, job.Tasks...)
		if round%3 == 2 {
			// Complete the oldest running tasks.
			done := 0
			kept := live[:0]
			for _, id := range live {
				if done < 4 && cl.Task(id).State == cluster.TaskRunning {
					cl.Complete(id, now)
					done++
					continue
				}
				kept = append(kept, id)
			}
			live = kept
		}
		if _, _, err := sched.RunOnce(now); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := sched.GraphManager().sanityCheck(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := sched.GraphManager().Graph().CheckFeasible(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if cl.NumRunning() > cl.TotalSlots() {
			t.Fatalf("round %d: oversubscribed", round)
		}
	}
}
