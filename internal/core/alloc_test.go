package core

import (
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/policy"
)

// TestSteadyStateUpdateAllocations pins the graph update at zero
// allocations a round once nothing happens: on a 64-machine LoadSpread
// world, partly occupied, with waiting tasks and no events, UpdateRound
// re-prices the waiting tasks and merge-walks the aggregator's ~1.6k
// machine arcs entirely in reused buffers. Run it without -race, which
// distorts AllocsPerRun.
func TestSteadyStateUpdateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32})
	gm := NewScheduler(cl, policy.NewLoadSpread(cl), DefaultConfig()).GraphManager()
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 600))
	for i, id := range job.Tasks[:400] {
		if err := cl.Place(id, cluster.MachineID(i%cl.NumMachines()), 0); err != nil {
			t.Fatal(err)
		}
	}
	gm.ApplyClusterEvents()
	now := time.Duration(0)
	round := func() {
		now += 300 * time.Millisecond // wait costs step every 2 s
		gm.UpdateRound(now)
		gm.Changes().Reset()
	}
	for i := 0; i < 3; i++ { // warm up: grow every buffer to the world's size
		round()
	}
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Fatalf("steady-state UpdateRound allocates %.1f objects/round, want 0", got)
	}
}

// TestSteadyStateScheduleAllocations pins the round's output at zero
// allocations: extraction writes into the reused node-indexed placement
// table and the apply walks the graph's tasks in a reused order, so on a
// 64-machine LoadSpread world with nothing changing, ExtractRound plus
// ApplyRoundRecorded allocate nothing, and a whole Schedule+ApplyRound
// allocates the same on 500 running tasks as on 4,000 — what is left is the
// Round itself and the §6.1 race's goroutines and channels. Run it without
// -race, which distorts AllocsPerRun.
func TestSteadyStateScheduleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	type world struct {
		s   *Scheduler
		now time.Duration
	}
	build := func(running int) *world {
		cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 64})
		w := &world{s: NewScheduler(cl, policy.NewLoadSpread(cl), DefaultConfig())}
		job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, running))
		for i, id := range job.Tasks {
			if err := cl.Place(id, cluster.MachineID(i%cl.NumMachines()), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // warm up: grow every buffer to the world's size
			w.now += 300 * time.Millisecond
			if _, _, err := w.s.RunOnce(w.now); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	schedule := func(w *world) float64 {
		return testing.AllocsPerRun(20, func() {
			w.now += 300 * time.Millisecond
			r, err := w.s.Schedule(w.now)
			if err != nil {
				t.Fatal(err)
			}
			w.s.ApplyRound(r, w.now)
		})
	}

	w := build(4000)
	if got := testing.AllocsPerRun(20, func() {
		r := w.s.gm.ExtractRound()
		w.s.ApplyRoundRecorded(&r, w.now, nil)
	}); got != 0 {
		t.Fatalf("steady-state ExtractRound+ApplyRoundRecorded allocate %.1f objects/round, want 0", got)
	}
	large := schedule(w)
	if small := schedule(build(500)); small != large {
		t.Fatalf("steady-state Schedule+ApplyRound allocates %.1f objects/round on 500 running tasks, %.1f on 4000: want equal", small, large)
	}
}
