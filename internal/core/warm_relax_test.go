package core

import (
	"math/rand"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
	"firmament/internal/mcmf"
	"firmament/internal/policy"
	"firmament/internal/storage"
)

// arrivalTasks is the size of the job quincyArrival submits.
const arrivalTasks = 50

// quincyArrival builds a seeded Quincy arrival round: 200 machines with 12
// slots each, 70 % of the slots filled by tasks reading files of a block
// store and placed by ordinary rounds, and then a job of arrivalTasks such
// tasks submitted and folded into the graph. The setup rounds run
// incremental cost scaling alone, so the state is the same on every run. It
// returns the scheduler with the arrival's graph unsolved, and the standing
// flow: the tasks in the graph before the arrival.
func quincyArrival(t *testing.T, seed int64) (*Scheduler, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cl := cluster.New(cluster.Topology{Racks: 5, MachinesPerRack: 40, SlotsPerMachine: 12})
	store := storage.NewStore(cl, storage.Config{Seed: seed})
	files := make([]int64, 64)
	for i := range files {
		files[i] = int64(1+rng.Intn(16)) << 28
		store.AddFile(files[i])
	}
	specs := func(n int) []cluster.TaskSpec {
		out := make([]cluster.TaskSpec, n)
		for i := range out {
			f := rng.Intn(len(files))
			out[i] = cluster.TaskSpec{InputFile: int64(f), InputSize: files[f]}
		}
		return out
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeIncrementalCostScaling
	s := NewScheduler(cl, policy.NewQuincy(cl, store), cfg)
	cl.SubmitJob(cluster.Batch, 0, 0, specs(200*12*7/10))
	for i := 0; cl.NumPending() > 0 && i < 10; i++ {
		if _, _, err := s.RunOnce(0); err != nil {
			t.Fatal(err)
		}
	}
	if cl.NumPending() > 0 {
		t.Fatalf("prefill: %d tasks still pending", cl.NumPending())
	}
	// One more round folds the prefill's placements into the graph.
	if _, _, err := s.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	standing := s.gm.NumTasks()
	cl.SubmitJob(cluster.Batch, 0, time.Second, specs(arrivalTasks))
	s.UpdateOnly(time.Second)
	return s, standing
}

// TestWarmRelaxationArrival is the host-independent count behind the
// race's warm start: on a Quincy arrival, relaxation warm from the
// unscaled price-refined potentials reaches incremental cost scaling's
// optimum in at most one iteration per arriving task, where relaxation
// from scratch takes at least one per unit of standing flow.
func TestWarmRelaxationArrival(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, standing := quincyArrival(t, seed)
		g, scale := s.gm.Graph(), s.pool.SolverScale()

		inc := NewSolverPool(ModeIncrementalCostScaling)
		inc.Options = s.pool.Options
		inc.RestoreSolverScale(scale)
		want, err := inc.Solve(g.Clone(), nil)
		if err != nil {
			t.Fatal(err)
		}

		warm := g.Clone()
		mcmf.UnscalePotentials(warm, scale)
		wres, err := mcmf.NewRelaxation().SolveIncremental(warm, &s.pool.Options)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := mcmf.NewRelaxation().Solve(g.Clone(), &s.pool.Options)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d arriving tasks, standing flow %d: warm relaxation %d iterations, from scratch %d",
			seed, arrivalTasks, standing, wres.Iterations, cold.Iterations)
		if wres.Cost != want.Cost || cold.Cost != want.Cost {
			t.Fatalf("seed %d: costs: warm relaxation %d, from scratch %d, incremental cost scaling %d",
				seed, wres.Cost, cold.Cost, want.Cost)
		}
		if wres.Iterations > arrivalTasks {
			t.Errorf("seed %d: warm relaxation took %d iterations, want at most the %d arriving tasks",
				seed, wres.Iterations, arrivalTasks)
		}
		if cold.Iterations < standing {
			t.Errorf("seed %d: relaxation from scratch took %d iterations, want at least the standing flow %d",
				seed, cold.Iterations, standing)
		}
	}
}

// TestWarmRelaxationRule checks the race's start rule on both kinds of
// round: a Quincy arrival changes little of the graph and starts
// relaxation warm; a LoadSpread round in which a job arrives and tasks
// complete re-prices the aggregator's machine arcs, changes more than
// the rule's share of the arcs and starts from scratch. A count the pool
// is not given, and a pool that has never priced a graph, start from
// scratch too.
func TestWarmRelaxationRule(t *testing.T) {
	s, _ := quincyArrival(t, 1)
	g, changes := s.gm.Graph(), s.gm.Changes()
	t.Logf("quincy arrival: %d changes, %d arcs", changes.Len(), g.NumArcs())
	if !s.pool.warmRelaxation(g, changes) {
		t.Errorf("quincy arrival (%d changes, %d arcs): rule starts relaxation from scratch, want warm", changes.Len(), g.NumArcs())
	}
	if s.pool.warmRelaxation(g, nil) {
		t.Error("no change count: rule starts relaxation warm, want from scratch")
	}
	if NewSolverPool(ModeFirmament).warmRelaxation(g, &flow.ChangeSet{}) {
		t.Error("unpriced pool: rule starts relaxation warm, want from scratch")
	}

	cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32})
	ls := newTestScheduler(cl, ModeIncrementalCostScaling) // LoadSpread, the same placements every run
	running := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 256)).Tasks
	if _, _, err := ls.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	for _, id := range running[:16] {
		if err := cl.Complete(id, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cl.SubmitJob(cluster.Batch, 0, time.Second, make([]cluster.TaskSpec, 32))
	ls.UpdateOnly(time.Second)
	g, changes = ls.gm.Graph(), ls.gm.Changes()
	t.Logf("load-spread round: %d changes, %d arcs", changes.Len(), g.NumArcs())
	if changes.Len()*warmRelaxArcsPerChange <= g.NumArcs() {
		t.Fatalf("load-spread round: %d changes on %d arcs, within the rule's share: want a round beyond it", changes.Len(), g.NumArcs())
	}
	if ls.pool.warmRelaxation(g, changes) {
		t.Errorf("load-spread round (%d changes, %d arcs): rule starts relaxation warm, want from scratch", changes.Len(), g.NumArcs())
	}
}
