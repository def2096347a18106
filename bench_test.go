// Benchmarks mirroring every table and figure of the paper's evaluation
// (§7), one per experiment ID, at laptop scale. The full paper-style sweeps
// with printed rows live in cmd/benchfig (go run ./cmd/benchfig -fig all);
// these testing.B benchmarks measure the core operation behind each
// experiment so that regressions in any reproduced result show up in
// `go test -bench`.
package firmament

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/experiments"
	"firmament/internal/experiments/solvers"
	"firmament/internal/flow"
	"firmament/internal/mcmf"
	"firmament/internal/policy"
	"firmament/internal/service"
	"firmament/internal/sim"
	"firmament/internal/storage"
	"firmament/internal/template"
	"firmament/internal/trace"
)

// benchGraph lazily builds and caches a warmed scheduling graph of the
// given size (building one takes seconds; benchmarks clone it per run).
var benchGraphs sync.Map

func warmGraph(b *testing.B, machines int) *flow.Graph {
	b.Helper()
	if g, ok := benchGraphs.Load(machines); ok {
		return g.(*flow.Graph)
	}
	_, g := experiments.WarmedForProfile(machines, 0.5, 42, core.ModeQuincy)
	benchGraphs.Store(machines, g)
	return g
}

func solveBench(b *testing.B, g *flow.Graph, s mcmf.Solver, opts *mcmf.Options) {
	b.Helper()
	b.ReportAllocs()
	clone := g.Clone()
	// Warm-up solve outside the timer: the first solve on a fresh solver
	// grows its pinned scratch to the graph's size, a one-time cost that
	// would otherwise dominate single-iteration (-benchtime 1x) runs of
	// the large variants.
	if _, err := s.Solve(clone, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.CloneInto(clone)
		b.StartTimer()
		if _, err := s.Solve(clone, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3QuincyRuntime measures the Quincy baseline: one from-scratch
// cost scaling solve over a warmed 150-machine scheduling graph (Figure 3).
func BenchmarkFig3QuincyRuntime(b *testing.B) {
	solveBench(b, warmGraph(b, 150), mcmf.NewCostScaling(), nil)
}

// BenchmarkFig7Algorithms compares the four MCMF algorithms from scratch on
// the same scheduling graph (Figure 7). Cycle canceling runs on a smaller
// graph; it would dominate the suite otherwise.
func BenchmarkFig7Algorithms(b *testing.B) {
	ap := &mcmf.Options{ArcPrioritization: true}
	b.Run("relaxation", func(b *testing.B) { solveBench(b, warmGraph(b, 150), mcmf.NewRelaxation(), ap) })
	b.Run("cost-scaling", func(b *testing.B) { solveBench(b, warmGraph(b, 150), mcmf.NewCostScaling(), nil) })
	b.Run("succ-shortest-path", func(b *testing.B) {
		solveBench(b, warmGraph(b, 150), solvers.NewSuccessiveShortestPath(), nil)
	})
	b.Run("cycle-canceling", func(b *testing.B) {
		solveBench(b, warmGraph(b, 25), solvers.NewCycleCanceling(), nil)
	})
}

// largeBenchSizes gates the 1k/5k-machine bench variants: warming a
// 5,000-machine graph takes minutes, so they only run when
// FIRMAMENT_BENCH_LARGE is set (scripts/bench.sh forwards it; CI smoke
// stays on the 150-machine graphs).
func largeBenchSizes(b *testing.B) []int {
	b.Helper()
	if os.Getenv("FIRMAMENT_BENCH_LARGE") == "" {
		b.Skip("set FIRMAMENT_BENCH_LARGE=1 to run the 1k/5k-machine variants")
	}
	return []int{1000, 5000}
}

// BenchmarkFig7Large is the Figure 7 from-scratch comparison at 1,000 and
// 5,000 machines — the scale band where the paper's sub-second claim lives.
// Cycle canceling is omitted (hours at this size).
func BenchmarkFig7Large(b *testing.B) {
	ap := &mcmf.Options{ArcPrioritization: true}
	for _, m := range largeBenchSizes(b) {
		m := m
		b.Run(fmt.Sprintf("machines-%d", m), func(b *testing.B) {
			b.Run("relaxation", func(b *testing.B) { solveBench(b, warmGraph(b, m), mcmf.NewRelaxation(), ap) })
			b.Run("cost-scaling", func(b *testing.B) { solveBench(b, warmGraph(b, m), mcmf.NewCostScaling(), nil) })
			b.Run("succ-shortest-path", func(b *testing.B) {
				solveBench(b, warmGraph(b, m), solvers.NewSuccessiveShortestPath(), nil)
			})
		})
	}
}

// BenchmarkFig11Large is the Figure 11 incremental-vs-from-scratch
// comparison at 1,000 and 5,000 machines.
func BenchmarkFig11Large(b *testing.B) {
	for _, m := range largeBenchSizes(b) {
		m := m
		b.Run(fmt.Sprintf("machines-%d", m), func(b *testing.B) {
			g := experiments.ChangedGraph(m, 42)
			b.Run("incremental", func(b *testing.B) {
				cs := mcmf.NewCostScaling()
				clone := g.Clone()
				if _, err := cs.SolveIncremental(clone, nil); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g.CloneInto(clone)
					b.StartTimer()
					if _, err := cs.SolveIncremental(clone, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("from-scratch", func(b *testing.B) {
				solveBench(b, g, mcmf.NewCostScaling(), nil)
			})
		})
	}
}

// oversubscribedGraph builds the Figure 8 scenario once.
var oversubOnce sync.Once
var oversubGraph *flow.Graph

func fig8Graph(b *testing.B) *flow.Graph {
	b.Helper()
	oversubOnce.Do(func() {
		oversubGraph = experiments.OversubscribedGraph(150, 0.12, 42)
	})
	return oversubGraph
}

// BenchmarkFig8Utilization measures both racing algorithms on an
// oversubscribed cluster snapshot (Figure 8).
func BenchmarkFig8Utilization(b *testing.B) {
	ap := &mcmf.Options{ArcPrioritization: true}
	b.Run("relaxation", func(b *testing.B) { solveBench(b, fig8Graph(b), mcmf.NewRelaxation(), ap) })
	b.Run("cost-scaling", func(b *testing.B) { solveBench(b, fig8Graph(b), mcmf.NewCostScaling(), nil) })
}

// contendedGraph builds the Figure 9 scenario once.
var contendedOnce sync.Once
var contendedG *flow.Graph

func fig9Graph(b *testing.B) *flow.Graph {
	b.Helper()
	contendedOnce.Do(func() {
		g, err := experiments.ContendedGraph(250, 1000, 42)
		if err != nil {
			b.Fatal(err)
		}
		contendedG = g
	})
	return contendedG
}

// BenchmarkFig9LargeJob measures the load-spreading contention edge case: a
// 1,000-task job arriving on a skew-loaded 250-machine cluster (Figure 9).
// Relaxation's time grows linearly with the job size; cost scaling's stays
// flat.
func BenchmarkFig9LargeJob(b *testing.B) {
	ap := &mcmf.Options{ArcPrioritization: true}
	b.Run("relaxation", func(b *testing.B) { solveBench(b, fig9Graph(b), mcmf.NewRelaxation(), ap) })
	b.Run("cost-scaling", func(b *testing.B) { solveBench(b, fig9Graph(b), mcmf.NewCostScaling(), nil) })
}

// BenchmarkFig10Approximate measures a solve with per-iteration snapshot
// hooks firing — the instrumentation cost of the early-termination
// experiment (Figure 10).
func BenchmarkFig10Approximate(b *testing.B) {
	g := warmGraph(b, 150)
	snaps := 0
	opts := &mcmf.Options{SnapshotHook: func(time.Duration) { snaps++ }}
	solveBench(b, g, mcmf.NewCostScaling(), opts)
	if snaps == 0 {
		b.Fatal("snapshot hook never fired")
	}
}

// BenchmarkFig11Incremental measures one incremental cost scaling round
// after a realistic change batch, against the from-scratch alternative
// (Figure 11).
func BenchmarkFig11Incremental(b *testing.B) {
	g := experiments.ChangedGraph(150, 42)
	b.Run("incremental", func(b *testing.B) {
		cs := mcmf.NewCostScaling()
		clone := g.Clone()
		if _, err := cs.SolveIncremental(clone, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g.CloneInto(clone)
			b.StartTimer()
			if _, err := cs.SolveIncremental(clone, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		solveBench(b, g, mcmf.NewCostScaling(), nil)
	})
}

// BenchmarkFig12aArcPrioritization measures relaxation with and without the
// §5.3.1 heuristic on the contended graph (Figure 12a).
func BenchmarkFig12aArcPrioritization(b *testing.B) {
	b.Run("with-AP", func(b *testing.B) {
		solveBench(b, fig9Graph(b), mcmf.NewRelaxation(), &mcmf.Options{ArcPrioritization: true})
	})
	b.Run("without-AP", func(b *testing.B) {
		solveBench(b, fig9Graph(b), mcmf.NewRelaxation(), &mcmf.Options{ArcPrioritization: false})
	})
}

// BenchmarkFig12bTaskRemoval measures the graph-side cost of removing
// running tasks with the §5.3.2 flow-draining heuristic (Figure 12b's
// mechanism; the solver-side effect, against stranded flow, is in
// cmd/benchfig).
func BenchmarkFig12bTaskRemoval(b *testing.B) {
	b.Run("with-drain", func(b *testing.B) {
		cl := cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 8, SlotsPerMachine: 8})
		sched := core.NewScheduler(cl, policy.NewLoadSpread(cl), core.Config{Mode: core.ModeIncrementalCostScaling})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 16))
			if _, _, err := sched.RunOnce(0); err != nil {
				b.Fatal(err)
			}
			for _, id := range job.Tasks {
				if cl.Task(id).State == cluster.TaskRunning {
					cl.Complete(id, time.Second)
				}
			}
			b.StartTimer()
			sched.GraphManager().ApplyClusterEvents()
		}
	})
}

// BenchmarkFig13PriceRefine measures the price refine pass that transfers a
// relaxation solution into cost scaling's scaled potential domain
// (Figure 13, §6.2).
func BenchmarkFig13PriceRefine(b *testing.B) {
	g := warmGraph(b, 150).Clone()
	if _, err := mcmf.NewRelaxation().Solve(g, &mcmf.Options{ArcPrioritization: true}); err != nil {
		b.Fatal(err)
	}
	scale := mcmf.NewCostScaling().ScaleFor(g)
	sc := mcmf.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sc.PriceRefine(g, scale, 0, nil) {
			b.Fatal("price refine failed on optimal flow")
		}
	}
}

// BenchmarkFig14PlacementLatency measures one full Firmament scheduling
// round — graph update, speculative dual solve, extraction, application —
// the pipeline whose latency Figure 14 reports.
func BenchmarkFig14PlacementLatency(b *testing.B) {
	cl := cluster.New(cluster.Topology{Racks: 6, MachinesPerRack: 25, SlotsPerMachine: 12})
	store := storage.NewStore(cl, storage.Config{Seed: 42, BlockSize: 1 << 30})
	sched := core.NewScheduler(cl, policy.NewQuincy(cl, store), core.DefaultConfig())
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		now += time.Second
		specs := make([]cluster.TaskSpec, 20)
		for j := range specs {
			f := store.AddFile(2 << 30)
			specs[j] = cluster.TaskSpec{Duration: time.Hour, InputFile: f, InputSize: 2 << 30}
		}
		job := cl.SubmitJob(cluster.Batch, 0, now, specs)
		b.StartTimer()
		if _, _, err := sched.RunOnce(now); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Keep utilization steady.
		for _, id := range job.Tasks {
			if cl.Task(id).State == cluster.TaskRunning {
				cl.Complete(id, now)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkFig15Threshold measures the graph update pass at the 14% and 2%
// locality thresholds: the 2% threshold yields many more preference arcs
// (Figure 15).
func BenchmarkFig15Threshold(b *testing.B) {
	for _, th := range []struct {
		name string
		frac float64
	}{{"threshold-14pct", 0.14}, {"threshold-2pct", 0.02}} {
		b.Run(th.name, func(b *testing.B) {
			cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 25, SlotsPerMachine: 12})
			store := storage.NewStore(cl, storage.Config{Seed: 42, BlockSize: 1 << 30})
			q := policy.NewQuincy(cl, store)
			q.PreferenceThreshold = th.frac
			sched := core.NewScheduler(cl, q, core.DefaultConfig())
			specs := make([]cluster.TaskSpec, 300)
			for j := range specs {
				f := store.AddFile(8 << 30)
				specs[j] = cluster.TaskSpec{Duration: time.Hour, InputFile: f, InputSize: 8 << 30}
			}
			cl.SubmitJob(cluster.Batch, 0, 0, specs)
			gm := sched.GraphManager()
			gm.ApplyClusterEvents()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gm.UpdateRound(time.Duration(i) * time.Millisecond)
			}
		})
	}
}

// BenchmarkFig16Oversubscription measures the speculative solver pool on an
// oversubscribed snapshot — the situation where racing both algorithms pays
// (Figure 16).
func BenchmarkFig16Oversubscription(b *testing.B) {
	g := fig8Graph(b)
	pool := core.NewSolverPool(core.ModeFirmament)
	pool.Options.Alpha = 9
	clone := g.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.CloneInto(clone)
		b.StartTimer()
		if _, err := pool.Solve(clone, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17BreakingPoint runs a short all-small-tasks simulation (jobs
// of 10 tasks at 80% load, Figure 17) end to end.
func BenchmarkFig17BreakingPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := trace.Uniform(10, 50*time.Millisecond, 25*time.Millisecond, time.Second)
		res, err := sim.Run(sim.Config{
			Topology: cluster.Topology{Racks: 2, MachinesPerRack: 10, SlotsPerMachine: 4},
			Workload: w,
			Seed:     42,
			NewFlowScheduler: func(env *sim.Env) *core.Scheduler {
				return core.NewScheduler(env.Cluster, policy.NewLoadSpread(env.Cluster), core.DefaultConfig())
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.TasksCompleted == 0 {
			b.Fatal("no tasks completed")
		}
	}
}

// BenchmarkFig18Speedup replays a 150×-accelerated Google-shape trace
// against Firmament (Figure 18).
func BenchmarkFig18Speedup(b *testing.B) {
	w := trace.Generate(trace.Config{
		Machines: 50, Utilization: 0.85, Horizon: 2 * time.Second,
		Speedup: 150, Seed: 42, Prefill: true,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Topology:   cluster.Topology{Racks: 2, MachinesPerRack: 25, SlotsPerMachine: 12},
			Workload:   w,
			Seed:       42,
			UseStorage: true,
			MaxVirtual: 10 * time.Second,
			NewFlowScheduler: func(env *sim.Env) *core.Scheduler {
				return core.NewScheduler(env.Cluster,
					policy.NewQuincy(env.Cluster, env.Store), core.DefaultConfig())
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchTestbed runs a short Figure 19 testbed simulation.
func benchTestbed(b *testing.B, loaded bool) {
	b.Helper()
	const gbps = 1000 * 1000 * 1000 / 8
	var bg []sim.BackgroundFlow
	if loaded {
		for i := 0; i < 14; i++ {
			bg = append(bg, sim.BackgroundFlow{
				Src: cluster.MachineID(i % 20), Dst: cluster.MachineID(20 + i%7),
				Class: 0, RateLimit: 4 * gbps,
			})
		}
	}
	w := &trace.Workload{Horizon: 5 * time.Second}
	for i := 0; i < 12; i++ {
		w.Jobs = append(w.Jobs, trace.JobTrace{
			Submit: time.Duration(i) * 400 * time.Millisecond,
			Class:  cluster.Batch,
			Tasks: []trace.TaskTrace{{
				Duration: 4 * time.Second, InputSize: 5 << 30, NetDemand: (5 << 30) / 4,
			}},
		})
	}
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Topology:   cluster.Topology{Racks: 4, MachinesPerRack: 10, SlotsPerMachine: 4, NICBps: 10 * gbps},
			Workload:   w,
			Seed:       42,
			UseStorage: true,
			UseFabric:  true,
			Background: bg,
			NewFlowScheduler: func(env *sim.Env) *core.Scheduler {
				return core.NewScheduler(env.Cluster,
					policy.NewNetworkAware(env.Cluster, env.Fabric), core.DefaultConfig())
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig19aIdleNetwork runs the 40-machine testbed model with an idle
// network (Figure 19a).
func BenchmarkFig19aIdleNetwork(b *testing.B) { benchTestbed(b, false) }

// BenchmarkFig19bLoadedNetwork runs it with the background iperf traffic
// (Figure 19b).
func BenchmarkFig19bLoadedNetwork(b *testing.B) { benchTestbed(b, true) }

// BenchmarkGraphUpdate measures the two-pass flow network update (§6.3).
func BenchmarkGraphUpdate(b *testing.B) {
	cl := cluster.New(cluster.Topology{Racks: 6, MachinesPerRack: 25, SlotsPerMachine: 12})
	store := storage.NewStore(cl, storage.Config{Seed: 42, BlockSize: 1 << 30})
	sched := core.NewScheduler(cl, policy.NewQuincy(cl, store), core.DefaultConfig())
	specs := make([]cluster.TaskSpec, 900)
	for j := range specs {
		f := store.AddFile(4 << 30)
		specs[j] = cluster.TaskSpec{Duration: time.Hour, InputFile: f, InputSize: 4 << 30}
	}
	cl.SubmitJob(cluster.Batch, 0, 0, specs)
	gm := sched.GraphManager()
	gm.ApplyClusterEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm.UpdateRound(time.Duration(i) * time.Millisecond)
	}
}

// BenchmarkUpdateRound1k measures the graph update in the steady state of
// a large, mostly busy cluster: 1,000 machines under Quincy, 8,400 tasks
// that run throughout, and per round about 75 events — a 38-task job
// arrives, the previous job starts (placed directly, as the solver's apply
// would), 38 older tasks finish, so occupancy holds however many rounds
// the benchmark asks for. One op is one round's event fold plus
// UpdateRound; allocs/op is allocations per round.
func BenchmarkUpdateRound1k(b *testing.B) {
	const (
		resident = 8400
		jobSize  = 38
		finish   = jobSize
		files    = 64
	)
	topo := cluster.Topology{Racks: 25, MachinesPerRack: 40, SlotsPerMachine: 12}
	cl := cluster.New(topo)
	store := storage.NewStore(cl, storage.Config{Seed: 42})
	for i := 0; i < files; i++ {
		store.AddFile(int64(1+i%16) << 28)
	}
	sched := core.NewScheduler(cl, policy.NewQuincy(cl, store), core.DefaultConfig())
	gm := sched.GraphManager()

	specs := func(n, salt int) []cluster.TaskSpec {
		out := make([]cluster.TaskSpec, n)
		for i := range out {
			f := int64((salt*31 + i) % files)
			out[i] = cluster.TaskSpec{InputFile: f, InputSize: (1 + f%16) << 28}
		}
		return out
	}
	// start places tasks on the next machines with a free slot.
	next := 0
	start := func(ids []cluster.TaskID, now time.Duration) {
		for _, id := range ids {
			for cl.Machine(cluster.MachineID(next)).Running() >= topo.SlotsPerMachine {
				next = (next + 1) % cl.NumMachines()
			}
			if err := cl.Place(id, cluster.MachineID(next), now); err != nil {
				b.Fatal(err)
			}
			next = (next + 1) % cl.NumMachines()
		}
	}
	start(cl.SubmitJob(cluster.Batch, 0, 0, specs(resident, 0)).Tasks, 0)

	var live, waiting []cluster.TaskID // running short tasks, oldest first; last round's job
	now := time.Duration(0)
	round := func(i int) {
		now += 38 * time.Millisecond
		if len(live) >= 25*finish { // about a second's worth stays running
			for _, id := range live[:finish] {
				if err := cl.Complete(id, now); err != nil {
					b.Fatal(err)
				}
			}
			live = live[finish:]
		}
		start(waiting, now)
		live = append(live, waiting...)
		waiting = cl.SubmitJob(cluster.Batch, 0, now, specs(jobSize, i+1)).Tasks
	}
	for i := 0; i < 40; i++ { // reach the steady state before timing
		round(i)
		gm.ApplyClusterEvents()
		gm.UpdateRound(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		round(40 + i)
		b.StartTimer()
		gm.ApplyClusterEvents()
		gm.UpdateRound(now)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "update-us/round")
}

// BenchmarkUpdateRoundLoadSpread64 measures the graph update on a world
// shaped like bench/'s template-64: 64 machines of 32 slots under
// LoadSpread, whose cluster aggregator carries one arc per free slot (about
// 1.8k here). Per round a job of 16, 32, 64 or 128 tasks arrives, the
// previous job starts (placed directly) and the oldest of four running jobs
// finishes. One op is one round's event fold plus UpdateRound; allocs/op is
// allocations per round.
func BenchmarkUpdateRoundLoadSpread64(b *testing.B) {
	shapes := [...]int{16, 32, 64, 128}
	cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32})
	gm := core.NewScheduler(cl, policy.NewLoadSpread(cl), core.DefaultConfig()).GraphManager()

	next := 0
	start := func(ids []cluster.TaskID, now time.Duration) {
		for _, id := range ids {
			for cl.Machine(cluster.MachineID(next)).Running() >= 32 {
				next = (next + 1) % cl.NumMachines()
			}
			if err := cl.Place(id, cluster.MachineID(next), now); err != nil {
				b.Fatal(err)
			}
			next = (next + 1) % cl.NumMachines()
		}
	}
	var live [][]cluster.TaskID // running jobs, oldest first
	var waiting []cluster.TaskID
	now := time.Duration(0)
	round := func(i int) {
		now += 5 * time.Millisecond
		if len(live) == 4 {
			for _, id := range live[0] {
				if err := cl.Complete(id, now); err != nil {
					b.Fatal(err)
				}
			}
			live = live[1:]
		}
		start(waiting, now)
		live = append(live, waiting)
		waiting = cl.SubmitJob(cluster.Batch, 0, now, make([]cluster.TaskSpec, shapes[i%len(shapes)])).Tasks
	}
	for i := 0; i < 8; i++ { // reach the steady state before timing
		round(i)
		gm.ApplyClusterEvents()
		gm.UpdateRound(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		round(8 + i)
		b.StartTimer()
		gm.ApplyClusterEvents()
		gm.UpdateRound(now)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "update-us/round")
}

// BenchmarkExtraction measures placement extraction (Listing 1): /table is
// the node-indexed table a scheduling round extracts into (0 allocs/op),
// /map the ExtractPlacements wrapper that copies it into a fresh map.
func BenchmarkExtraction(b *testing.B) {
	sched, _ := experiments.WarmedSchedulerForProfile(250, 0.8, 42)
	gm := sched.GraphManager()
	if _, err := mcmf.NewRelaxation().Solve(gm.Graph(), &mcmf.Options{ArcPrioritization: true}); err != nil {
		b.Fatal(err)
	}
	if len(gm.ExtractPlacements()) == 0 {
		b.Fatal("no placements extracted")
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gm.ExtractRound()
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gm.ExtractPlacements()
		}
	})
}

// BenchmarkApplyRound1k measures the apply of a scheduling round on a
// large, mostly busy cluster: 1,000 machines under Quincy, 8,400 running
// tasks and a 38-task job just placed. /steady is the common round, whose
// apply walks only its candidates: the tasks the update saw waiting, plus
// any running task the round moves. /widened is the same apply while an
// eviction sits undrained, when it walks every task. One op is one
// ApplyRoundRecorded of a Round whose decisions are already enacted, so
// both sub-benchmarks time the walk itself; allocs/op must be 0.
func BenchmarkApplyRound1k(b *testing.B) {
	const (
		resident = 8400
		jobSize  = 38
		files    = 64
	)
	cl := cluster.New(cluster.Topology{Racks: 25, MachinesPerRack: 40, SlotsPerMachine: 12})
	store := storage.NewStore(cl, storage.Config{Seed: 42})
	for i := 0; i < files; i++ {
		store.AddFile(int64(1+i%16) << 28)
	}
	sched := core.NewScheduler(cl, policy.NewQuincy(cl, store), core.DefaultConfig())
	specs := func(n int) []cluster.TaskSpec {
		out := make([]cluster.TaskSpec, n)
		for i := range out {
			f := int64(i % files)
			out[i] = cluster.TaskSpec{InputFile: f, InputSize: (1 + f%16) << 28}
		}
		return out
	}
	ids := cl.SubmitJob(cluster.Batch, 0, 0, specs(resident)).Tasks
	for i, id := range ids {
		if err := cl.Place(id, cluster.MachineID(i%cl.NumMachines()), 0); err != nil {
			b.Fatal(err)
		}
	}
	now := time.Duration(0)
	for k := 0; ; k++ { // settle: run rounds until one moves no running task
		now += time.Second
		_, ap, err := sched.RunOnce(now)
		if err != nil {
			b.Fatal(err)
		}
		if ap.Migrated+ap.Preempted == 0 {
			break
		}
		if k == 10 {
			b.Fatal("the solver keeps moving running tasks")
		}
	}
	cl.SubmitJob(cluster.Batch, 0, now, specs(jobSize))
	now += time.Second
	r, err := sched.Schedule(now)
	if err != nil {
		b.Fatal(err)
	}
	if ap := sched.ApplyRound(r, now); ap.Placed != jobSize || cl.NumQueuedEvictions() != 0 {
		b.Fatalf("the job's round enacted %+v, want %d placements alone", ap, jobSize)
	}
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched.ApplyRoundRecorded(r, now, nil)
		}
	})
	b.Run("widened", func(b *testing.B) {
		if cl.NumQueuedEvictions() == 0 {
			if err := cl.Preempt(ids[0], now); err != nil {
				b.Fatal(err)
			}
			sched.ApplyRound(r, now) // places it back; its eviction stays queued
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.ApplyRoundRecorded(r, now, nil)
		}
	})
}

// BenchmarkServiceSubmitContention measures aggregate front-door submit
// throughput as the submitter count grows. Every submission takes the
// cluster's one table lock, so the aggregate figure flattens once the
// lock saturates: on a 2-vCPU host, medians of three 2 s runs were about
// 228k/166k/147k/163k submits/s at 1/4/16/32 submitters, well above what
// any workload in bench/ submits. The scheduling loop runs
// concurrently on a long round interval — its solve happens under no
// cluster lock, so it does not gate the submitters being measured.
func BenchmarkServiceSubmitContention(b *testing.B) {
	for _, submitters := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("submitters-%d", submitters), func(b *testing.B) {
			cl := cluster.New(cluster.Topology{Racks: 8, MachinesPerRack: 16, SlotsPerMachine: 64})
			svc := service.New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(),
				service.Config{RoundInterval: 100 * time.Millisecond})
			defer svc.Close()
			specs := make([]cluster.TaskSpec, 1)
			var issued atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < submitters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for issued.Add(1) <= int64(b.N) {
						if _, err := svc.Submit(cluster.Batch, 0, specs); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submits/s")
		})
	}
}

// BenchmarkClone measures the copy speculative execution (§6.1) needs for
// its second solver: /deep is the full CloneInto that tests, experiments and
// the stepped benchmark take, /replica the ReplicaInto the solver pool takes
// every racing round, which copies only residuals and node records.
func BenchmarkClone(b *testing.B) {
	g := warmGraph(b, 450)
	b.Run("deep", func(b *testing.B) {
		clone := g.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.CloneInto(clone)
		}
	})
	b.Run("replica", func(b *testing.B) {
		replica := g.ReplicaInto(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ReplicaInto(replica)
		}
	})
}

// BenchmarkSolveAfterBurst times one round's incremental cost scaling plus
// price refine on a graph shaped like bench's scale-1k right after its
// set-up burst: 1,000 machines under Quincy, 8,400 tasks submitted at once
// and placed by one solve, and the second round's update, which drops the
// burst's pending-task arcs and leaves most arc ID slots dead. /compacted is
// that graph as the scheduler now leaves it, its arcs renumbered densely;
// /sparse is the same graph with its live arcs spread among 1.5 dead pairs
// each, about the ratio the burst leaves, and every row in the same order,
// so both variants do the same solver work and differ only in the dead
// slots each pass over the arc planes walks.
func BenchmarkSolveAfterBurst(b *testing.B) {
	compacted, scale := burstGraph(b)
	sparse := spreadArcs(b, compacted)
	for _, v := range []struct {
		name string
		g    *flow.Graph
	}{{"sparse", sparse}, {"compacted", compacted}} {
		b.Run(v.name, func(b *testing.B) {
			cs, sc := mcmf.NewCostScaling(), mcmf.NewScratch()
			opts := &mcmf.Options{Alpha: 9}
			work := v.g.Clone()
			round := func() {
				if _, err := cs.SolveIncremental(work, opts); err != nil {
					b.Fatal(err)
				}
				sc.PriceRefine(work, cs.ScaleFor(work), 0, opts)
			}
			cs.SetScale(scale)
			round() // grow the solvers' scratch outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v.g.CloneInto(work)
				cs.SetScale(scale)
				b.StartTimer()
				round()
			}
			b.ReportMetric(float64(v.g.ArcIDBound()), "arc-slots")
		})
	}
}

// BenchmarkRaceArrival times the three solves the §6.1 race can run on a
// Quincy job arrival: 1,000 machines at 70 % prefill, as bench's scale-1k,
// and then one 50-task job folded into the graph. Incremental cost scaling
// and warm relaxation start from the prefill's solution and price-refined
// potentials, warm relaxation after unscaling them as the solver pool
// does; relaxation from scratch discards them. The pool starts relaxation
// warm on such a round, which changes little of the graph. Each reports
// its iterations per solve beside allocs/op.
func BenchmarkRaceArrival(b *testing.B) {
	g, scale := arrivalGraph(b)
	opts := &mcmf.Options{Alpha: core.DefaultConfig().Alpha, ArcPrioritization: true}
	cs, relax := mcmf.NewCostScaling(), mcmf.NewRelaxation()
	for _, v := range []struct {
		name  string
		solve func(*flow.Graph) (mcmf.Result, error)
	}{
		{"incremental-cost-scaling", func(w *flow.Graph) (mcmf.Result, error) {
			cs.SetScale(scale)
			return cs.SolveIncremental(w, opts)
		}},
		{"relaxation-warm", func(w *flow.Graph) (mcmf.Result, error) {
			mcmf.UnscalePotentials(w, scale)
			return relax.SolveIncremental(w, opts)
		}},
		{"relaxation-from-scratch", func(w *flow.Graph) (mcmf.Result, error) { return relax.Solve(w, opts) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			work := g.Clone()
			if _, err := v.solve(work); err != nil { // grow the solver's scratch outside the timer
				b.Fatal(err)
			}
			var iters int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g.CloneInto(work)
				b.StartTimer()
				res, err := v.solve(work)
				if err != nil {
					b.Fatal(err)
				}
				iters += res.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
		})
	}
}

// arrivalGraph builds BenchmarkRaceArrival's round through a Scheduler
// running incremental cost scaling alone, and returns the graph as the
// arrival's solve finds it, with the cost scaling scale its potentials are
// in.
func arrivalGraph(b *testing.B) (*flow.Graph, int64) {
	b.Helper()
	topo := cluster.Topology{Racks: 25, MachinesPerRack: 40, SlotsPerMachine: 12}
	cl := cluster.New(topo)
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	rng := rand.New(rand.NewSource(1))
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
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncrementalCostScaling
	sched := core.NewScheduler(cl, policy.NewQuincy(cl, store), cfg)
	cl.SubmitJob(cluster.Batch, 0, 0, specs(7*topo.Racks*topo.MachinesPerRack*topo.SlotsPerMachine/10))
	// Place the prefill, then one more round folds its placements in.
	for i := 0; cl.NumPending() > 0 && i < 10; i++ {
		if _, _, err := sched.RunOnce(0); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := sched.RunOnce(0); err != nil {
		b.Fatal(err)
	}
	cl.SubmitJob(cluster.Batch, 0, time.Second, specs(50))
	sched.UpdateOnly(time.Second)
	return sched.GraphManager().Graph(), sched.Pool().SolverScale()
}

// burstGraph builds scale-1k's set-up through a Scheduler and returns the
// graph as the second round's solve finds it, with the cost scaling scale
// its potentials are in.
func burstGraph(b *testing.B) (*flow.Graph, int64) {
	b.Helper()
	topo := cluster.Topology{Racks: 25, MachinesPerRack: 40, SlotsPerMachine: 12}
	cl := cluster.New(topo)
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	rng := rand.New(rand.NewSource(1))
	files := make([]int64, 16)
	for i := range files {
		files[i] = int64(1+rng.Intn(16)) << 28
		store.AddFile(files[i])
	}
	specs := make([]cluster.TaskSpec, 7*topo.Racks*topo.MachinesPerRack*topo.SlotsPerMachine/10)
	for i := range specs {
		f := rng.Intn(len(files))
		specs[i] = cluster.TaskSpec{Duration: 24 * time.Hour, InputFile: int64(f), InputSize: files[f]}
	}
	sched := core.NewScheduler(cl, policy.NewQuincy(cl, store), core.DefaultConfig())
	cl.SubmitJob(cluster.Batch, 0, 0, specs)
	if _, _, err := sched.RunOnce(time.Millisecond); err != nil {
		b.Fatal(err)
	}
	gm := sched.GraphManager()
	gm.ApplyClusterEvents()
	gm.UpdateRound(2 * time.Millisecond)
	return gm.Graph(), sched.Pool().SolverScale()
}

// spreadArcs rebuilds g with 1.5 dead arc pairs per live one (alternately
// one and two) below the live pair's ID, nodes under the same IDs, and every
// row listing the same arcs, renamed, in the same order. A row lists its
// arcs newest first, so it re-adds the pairs in an order that puts each
// row's older arcs first, found by a topological sort over the rows.
func spreadArcs(b *testing.B, g *flow.Graph) *flow.Graph {
	b.Helper()
	pairs := g.ArcIDBound() / 2
	indeg := make([]int, pairs)
	succ := make([][]int32, pairs) // pairs added after this one
	for n := 0; n < g.NodeIDBound(); n++ {
		row := g.Out(flow.NodeID(n))
		for i := len(row) - 1; i > 0; i-- {
			p, q := row[i]/2, row[i-1]/2
			succ[p] = append(succ[p], int32(q))
			indeg[q]++
		}
	}
	var order []int32
	for p := range indeg {
		if indeg[p] == 0 && g.ArcInUse(flow.ArcID(2*p)) {
			order = append(order, int32(p))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, q := range succ[order[i]] {
			if indeg[q]--; indeg[q] == 0 {
				order = append(order, q)
			}
		}
	}
	if len(order) != g.NumArcs() {
		b.Fatalf("spreadArcs ordered %d of %d arcs", len(order), g.NumArcs())
	}

	s := flow.NewGraph(g.NodeIDBound(), 5*g.NumArcs()/2)
	for n := 0; n < g.NodeIDBound(); n++ {
		id := flow.NodeID(n)
		s.AddNode(g.Supply(id), g.Kind(id))
		s.SetPotential(id, g.Potential(id))
	}
	var sink flow.NodeID
	g.Nodes(func(n flow.NodeID) {
		if g.Kind(n) == flow.KindSink {
			sink = n
		}
	})
	var dummies []flow.ArcID
	for i, p := range order {
		for k := 0; k < 1+i%2; k++ {
			dummies = append(dummies, s.AddArc(sink, sink, 0, 0))
		}
		a := flow.ArcID(2 * p)
		c := s.AddArc(g.Tail(a), g.Head(a), g.Capacity(a), g.Cost(a))
		if f := g.Flow(a); f > 0 {
			s.Push(c, f)
		}
	}
	for _, a := range dummies {
		s.RemoveArc(a)
	}
	for n := 0; n < g.NodeIDBound(); n++ {
		if !g.NodeInUse(flow.NodeID(n)) {
			s.RemoveNode(flow.NodeID(n))
		}
	}
	for n := 0; n < g.NodeIDBound(); n++ {
		gr, sr := g.Out(flow.NodeID(n)), s.Out(flow.NodeID(n))
		if len(gr) != len(sr) {
			b.Fatalf("spreadArcs: node %d has %d arcs, want %d", n, len(sr), len(gr))
		}
		for i := range gr {
			if g.Head(gr[i]) != s.Head(sr[i]) || g.Resid(gr[i]) != s.Resid(sr[i]) || g.Cost(gr[i]) != s.Cost(sr[i]) {
				b.Fatalf("spreadArcs: node %d slot %d differs", n, i)
			}
		}
	}
	return s
}

// BenchmarkRestore measures crash recovery: rebuilding a service — cluster
// tables plus the warm flow network — from a journal directory holding a
// snapshot of a loaded 64-machine cluster. This is the restart-to-scheduling
// time a durable deployment pays, and it must stay far below a from-scratch
// graph rebuild plus cold solve for the warm-start design to carry its
// weight.
func BenchmarkRestore(b *testing.B) {
	dir := b.TempDir()
	opts := ServiceOptions{
		Topology:   Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 16},
		Model:      func(cl *Cluster) CostModel { return NewLoadSpreadPolicy(cl) },
		Scheduler:  DefaultConfig(),
		Service:    ServiceConfig{RoundInterval: time.Millisecond},
		Durability: DurabilityConfig{Dir: dir, Sync: SyncNone},
	}
	svc, _, err := OpenService(opts)
	if err != nil {
		b.Fatal(err)
	}
	events, cancel := svc.Watch()
	const jobs, tasksPerJob = 32, 16
	for i := 0; i < jobs; i++ {
		if _, err := svc.Submit(Batch, 0, make([]TaskSpec, tasksPerJob)); err != nil {
			b.Fatal(err)
		}
	}
	placed := 0
	for placed < jobs*tasksPerJob {
		if p := <-events; p.Kind == DecisionPlaced {
			placed++
		}
	}
	cancel()
	if err := svc.Close(); err != nil { // cuts the snapshot the restore loads
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, info, err := ReplayJournal(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Restored || info.RunningTasks != jobs*tasksPerJob {
			b.Fatalf("bad restore: %+v", info)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}

// BenchmarkTemplateHitPath compares what a recurring job submission costs
// with and without the placement-template fast path (internal/template,
// docs/templates.md). The /hit variant runs exactly the admission sequence
// a warm service round runs — gather the slot profile, fingerprint the job,
// look up the cached template, validate it against live machine state, and
// commit the placements — while /solver pays the full scheduling round
// (graph update, min-cost solve, extraction, application) for the same
// recurring job. The fast path must beat the solver by well over an order
// of magnitude; that gap is the entire case for the cache.
func BenchmarkTemplateHitPath(b *testing.B) {
	topo := cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 8}
	const tasksPerJob = 16
	specs := make([]cluster.TaskSpec, tasksPerJob)
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncrementalCostScaling

	b.Run("hit", func(b *testing.B) {
		cl := cluster.New(topo)
		model := policy.NewLoadSpread(cl)
		sig := model.TemplateSignature()
		cache := template.NewCache(template.DefaultCapacity)
		view := func(m cluster.MachineID) (running, slots int, healthy bool) {
			mm := cl.Machine(m)
			return mm.Running(), mm.Slots, mm.Healthy()
		}

		// Record the template the way a miss does: solve the first
		// submission for real and capture where the solver put each task,
		// at which occupancy level.
		sched := core.NewScheduler(cl, model, cfg)
		job0 := cl.SubmitJob(cluster.Batch, 0, 0, specs)
		shape, ok := template.JobShape(cl, job0, sig, 0)
		if !ok {
			b.Fatal("job shape not templateable")
		}
		profile := template.GatherProfile(cl, nil)
		r, err := sched.Schedule(0)
		if err != nil {
			b.Fatal(err)
		}
		level := make(map[cluster.MachineID]int32)
		assign := make([]template.Assignment, 0, tasksPerJob)
		for _, tid := range job0.Tasks {
			m, ok := r.Machine(tid)
			if !ok {
				b.Fatal("recording solve left a task unplaced")
			}
			assign = append(assign, template.Assignment{Machine: m, Level: level[m]})
			level[m]++
		}
		cache.Insert(&template.Template{
			FP:      template.Fingerprint(shape, profile),
			Shape:   shape,
			Profile: append([]template.Slot(nil), profile...),
			Assign:  assign,
		})
		for _, tid := range job0.Tasks {
			cl.Complete(tid, 0)
		}
		cl.DrainEvents(nil)

		now := time.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			now += time.Millisecond
			job := cl.SubmitJob(cluster.Batch, 0, now, specs)
			b.StartTimer()

			shape, ok := template.JobShape(cl, job, sig, 0)
			if !ok {
				b.Fatal("job shape not templateable")
			}
			profile = template.GatherProfile(cl, profile)
			tpl := cache.Lookup(template.Fingerprint(shape, profile))
			if tpl == nil || !tpl.Matches(shape, profile) || !tpl.Validate(view) {
				b.Fatal("recurring submission missed the cache")
			}
			for i, as := range tpl.Assign {
				if err := cl.Place(job.Tasks[i], as.Machine, now); err != nil {
					b.Fatal(err)
				}
			}

			b.StopTimer()
			for _, tid := range job.Tasks {
				cl.Complete(tid, now)
			}
			cl.DrainEvents(nil)
			b.StartTimer()
		}
	})

	b.Run("solver", func(b *testing.B) {
		cl := cluster.New(topo)
		sched := core.NewScheduler(cl, policy.NewLoadSpread(cl), cfg)
		// Warm round so the incremental solver starts from a solved flow,
		// like the service between rounds.
		job0 := cl.SubmitJob(cluster.Batch, 0, 0, specs)
		if _, _, err := sched.RunOnce(0); err != nil {
			b.Fatal(err)
		}
		for _, tid := range job0.Tasks {
			if cl.Task(tid).State == cluster.TaskRunning {
				cl.Complete(tid, 0)
			}
		}

		now := time.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			now += time.Millisecond
			job := cl.SubmitJob(cluster.Batch, 0, now, specs)
			b.StartTimer()
			if _, _, err := sched.RunOnce(now); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, tid := range job.Tasks {
				if cl.Task(tid).State == cluster.TaskRunning {
					cl.Complete(tid, now)
				}
			}
			b.StartTimer()
		}
	})
}
