package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/experiments/solvers"
	"firmament/internal/mcmf"
	"firmament/internal/metrics"
	"firmament/internal/policy"
	"firmament/internal/trace"
)

// defaultSizes are the cluster sizes swept by the scale experiments (the
// paper sweeps 50…12,500; the defaults stop at 1,250 ≈ a tenth of the
// Google cluster so the suite runs on a laptop — pass a larger
// Options.Scale to go further).
var defaultSizes = []int{50, 150, 450, 1250}

// Fig3 reproduces Figure 3: the algorithm runtime of the Quincy approach
// (from-scratch cost scaling) grows with cluster size. For each size, the
// Google-shape workload runs against a Firmament scheduler restricted to
// from-scratch cost scaling, and per-round runtimes are reported as the
// paper's percentile boxes.
func Fig3(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 3: Quincy (from-scratch cost scaling) algorithm runtime vs cluster size")
	fmt.Fprintf(w, "%9s %12s %12s %12s %12s %12s\n", "machines", "p1", "p25", "p50", "p75", "p99")
	for _, size := range defaultSizes {
		n := o.scaled(size)
		dist, err := roundRuntimes(n, 0.5, o, core.ModeQuincy)
		if err != nil {
			return err
		}
		b := dist.Box()
		fmt.Fprintf(w, "%9d %12s %12s %12s %12s %12s\n", n,
			fmtDur(time.Duration(b.P1*float64(time.Second))),
			fmtDur(time.Duration(b.P25*float64(time.Second))),
			fmtDur(time.Duration(b.P50*float64(time.Second))),
			fmtDur(time.Duration(b.P75*float64(time.Second))),
			fmtDur(time.Duration(b.P99*float64(time.Second))))
	}
	return nil
}

// roundRuntimes measures per-round solver runtimes for a warmed cluster
// with ongoing churn.
func roundRuntimes(n int, util float64, o Options, mode core.SolverMode) (*metrics.Dist, error) {
	sched, cl, store := warmed(n, util, o.Seed, mode)
	rng := rand.New(rand.NewSource(o.Seed))
	var dist metrics.Dist
	now := time.Second
	for round := 0; round < o.Rounds; round++ {
		churn(cl, store, rng, now, n/10+1, n/10+1)
		r, err := sched.Schedule(now)
		if err != nil {
			return nil, err
		}
		sched.ApplyRound(r, now)
		dist.AddDuration(r.Stats.Pool.AlgorithmTime)
		now += time.Second
	}
	return &dist, nil
}

// Fig7 reproduces Figure 7: average from-scratch runtime of the four MCMF
// algorithms on the same scheduling graphs. Relaxation must win by orders
// of magnitude, successive shortest path must beat only cycle canceling.
func Fig7(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 7: average from-scratch MCMF algorithm runtime vs cluster size")
	algos := []mcmf.Solver{
		solvers.NewCycleCanceling(),
		solvers.NewSuccessiveShortestPath(),
		mcmf.NewCostScaling(),
		mcmf.NewRelaxation(),
	}
	// Firmament always runs relaxation with arc prioritization (§5.3.1).
	apOpts := &mcmf.Options{ArcPrioritization: true}
	fmt.Fprintf(w, "%9s %18s %18s %18s %18s\n",
		"machines", "cycle-cancel", "succ-shortest", "cost-scaling", "relaxation")
	for _, size := range defaultSizes {
		n := o.scaled(size)
		sched, _, _ := warmed(n, 0.5, o.Seed, core.ModeQuincy)
		g := sched.GraphManager().Graph()
		fmt.Fprintf(w, "%9d", n)
		for _, a := range algos {
			var opts *mcmf.Options
			if _, isRelax := a.(*mcmf.Relaxation); isRelax {
				opts = apOpts
			}
			rt, ok := timedSolve(g, a, opts, o.SolverTimeout)
			if !ok {
				fmt.Fprintf(w, " %18s", ">"+fmtDur(o.SolverTimeout))
				continue
			}
			fmt.Fprintf(w, " %18s", fmtDur(rt))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// largeSizes are the cluster sizes of the env-guarded large solver
// variants: the band where the paper's sub-second from-scratch claim
// lives. Warming a 5,000-machine cluster and timing the slow algorithms on
// it takes minutes, so Fig7Large/Fig11Large only run with
// FIRMAMENT_BENCH_LARGE set — without it they print a skip notice, keeping
// `-fig all` and CI smoke fast.
var largeSizes = []int{1000, 5000}

// largeVariantsEnabled reports whether the large variants should run,
// printing the skip notice otherwise.
func largeVariantsEnabled(w io.Writer) bool {
	if os.Getenv("FIRMAMENT_BENCH_LARGE") != "" {
		return true
	}
	fmt.Fprintln(w, "skipped: set FIRMAMENT_BENCH_LARGE=1 to run the 1k/5k-machine variants")
	return false
}

// Fig7Large is the Figure 7 from-scratch comparison at 1,000 and 5,000
// machines. Cycle canceling is omitted — it needs hours at this scale; the
// per-solve timeout still applies to the algorithms that run.
func Fig7Large(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 7 (large): from-scratch MCMF algorithm runtime at 1k/5k machines")
	if !largeVariantsEnabled(w) {
		return nil
	}
	algos := []mcmf.Solver{
		solvers.NewSuccessiveShortestPath(),
		mcmf.NewCostScaling(),
		mcmf.NewRelaxation(),
	}
	apOpts := &mcmf.Options{ArcPrioritization: true}
	fmt.Fprintf(w, "%9s %18s %18s %18s\n",
		"machines", "succ-shortest", "cost-scaling", "relaxation")
	for _, n := range largeSizes {
		sched, _, _ := warmed(n, 0.5, o.Seed, core.ModeQuincy)
		g := sched.GraphManager().Graph()
		fmt.Fprintf(w, "%9d", n)
		for _, a := range algos {
			var opts *mcmf.Options
			if _, isRelax := a.(*mcmf.Relaxation); isRelax {
				opts = apOpts
			}
			rt, ok := timedSolve(g, a, opts, o.SolverTimeout)
			if !ok {
				fmt.Fprintf(w, " %18s", ">"+fmtDur(o.SolverTimeout))
				continue
			}
			fmt.Fprintf(w, " %18s", fmtDur(rt))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig8 reproduces Figure 8: near full utilization, relaxation's runtime
// explodes while cost scaling stays flat. A 90%-utilized cluster receives
// increasingly large jobs pushing it towards oversubscription.
func Fig8(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 8: solver runtime vs slot utilization (oversubscription edge case)")
	n := o.scaled(450)
	fmt.Fprintf(w, "%7s %8s %16s %16s\n", "util%", "tasks", "relaxation", "cost-scaling")
	for _, extra := range []float64{0.01, 0.03, 0.05, 0.07, 0.09, 0.12} {
		sched, cl, store := warmed(n, 0.90, o.Seed, core.ModeQuincy)
		slots := cl.TotalSlots()
		add := int(float64(slots) * extra)
		// The arriving job's tasks all scan the same dataset, so their
		// preference arcs contend for the same replica holders — the
		// "nodes with a lot of potential incoming flow" that §5.2 blames
		// for relaxation's struggles.
		shared := store.AddFile(64 << 30)
		specs := make([]cluster.TaskSpec, add)
		for i := range specs {
			specs[i] = cluster.TaskSpec{
				Duration:  10 * time.Minute,
				InputFile: shared,
				InputSize: 64 << 30,
			}
		}
		cl.SubmitJob(cluster.Batch, 0, time.Second, specs)
		// Build the updated graph once, then measure both algorithms on it.
		sched.GraphManager().ApplyClusterEvents()
		sched.GraphManager().UpdateRound(time.Second)
		g := sched.GraphManager().Graph()
		relaxRt, relaxOk := timedSolve(g, mcmf.NewRelaxation(), &mcmf.Options{ArcPrioritization: true}, o.SolverTimeout)
		csRt, csOk := timedSolve(g, mcmf.NewCostScaling(), nil, o.SolverTimeout)
		util := 0.90 + extra
		fmt.Fprintf(w, "%7.1f %8d %16s %16s\n", util*100, add,
			durOrTimeout(relaxRt, relaxOk, o.SolverTimeout),
			durOrTimeout(csRt, csOk, o.SolverTimeout))
	}
	return nil
}

// Fig9 reproduces Figure 9: under the load-spreading policy, relaxation's
// runtime grows linearly with the size of a single arriving job and
// crosses over cost scaling's flat runtime.
func Fig9(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 9: solver runtime vs tasks in arriving job (load-spreading policy)")
	n := o.scaled(1000)
	fmt.Fprintf(w, "%8s %16s %16s\n", "tasks", "relaxation", "cost-scaling")
	for _, tasks := range []int{500, 1000, 2000, 3000, 4000, 5000} {
		g, err := loadSpreadContendedGraph(n, tasks, o.Seed)
		if err != nil {
			return err
		}
		relaxRt, relaxOk := timedSolve(g, mcmf.NewRelaxation(), &mcmf.Options{ArcPrioritization: true}, o.SolverTimeout)
		csRt, csOk := timedSolve(g, mcmf.NewCostScaling(), nil, o.SolverTimeout)
		fmt.Fprintf(w, "%8d %16s %16s\n", tasks,
			durOrTimeout(relaxRt, relaxOk, o.SolverTimeout),
			durOrTimeout(csRt, csOk, o.SolverTimeout))
	}
	return nil
}

// loadSpreadContendedGraph builds the Figure 9 scenario: a skew-loaded
// cluster under the load-spreading policy with one big arriving job, and
// returns the scheduling graph ready to solve.
func loadSpreadContendedGraph(machines, jobTasks int, seed int64) (*coreGraph, error) {
	cl := cluster.New(clusterTopo(machines))
	rng := rand.New(rand.NewSource(seed))
	// Skewed pre-load so the cheapest destinations are scarce.
	var total int
	counts := make([]int, cl.NumMachines())
	for i := range counts {
		counts[i] = rng.Intn(cl.Topology().SlotsPerMachine)
		total += counts[i]
	}
	pre := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, total))
	idx := 0
	for m, k := range counts {
		for s := 0; s < k; s++ {
			if err := cl.Place(pre.Tasks[idx], cluster.MachineID(m), 0); err != nil {
				return nil, err
			}
			idx++
		}
	}
	cl.DrainEvents(nil)
	cfg := core.DefaultConfig()
	sched := core.NewScheduler(cl, policy.NewLoadSpread(cl), cfg)
	cl.SubmitJob(cluster.Batch, 0, time.Second, make([]cluster.TaskSpec, jobTasks))
	sched.GraphManager().ApplyClusterEvents()
	sched.GraphManager().UpdateRound(time.Second)
	return sched.GraphManager().Graph(), nil
}

// coreGraph aliases the flow graph type for readability here.
type coreGraph = flowGraph

func durOrTimeout(d time.Duration, ok bool, timeout time.Duration) string {
	if !ok {
		return ">" + fmtDur(timeout)
	}
	return fmtDur(d)
}

// Fig17 reproduces Figure 17: the breaking point with an all-short-task
// workload. Jobs of 10 tasks arrive at 80% cluster load; as task duration
// shrinks, job response time eventually deviates from the ideal (= task
// duration) when the scheduler cannot keep up.
func Fig17(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 17: job response time vs task duration (breaking point, 80% load)")
	fmt.Fprintf(w, "%9s %12s %16s %16s %10s\n", "machines", "task-dur", "job-resp p50", "job-resp p99", "ratio")
	for _, n := range []int{o.scaled(100), o.scaled(400)} {
		for _, dur := range []time.Duration{
			5 * time.Second, time.Second, 375 * time.Millisecond,
			100 * time.Millisecond, 20 * time.Millisecond, 5 * time.Millisecond,
		} {
			p50, p99, err := breakingPoint(n, dur, o)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%9d %12s %16s %16s %9.2fx\n",
				n, fmtDur(dur), fmtDur(p50), fmtDur(p99),
				float64(p50)/float64(dur))
		}
	}
	return nil
}

func breakingPoint(machines int, dur time.Duration, o Options) (p50, p99 time.Duration, err error) {
	topo := clusterTopo(machines)
	topo.SlotsPerMachine = 4
	slots := machines * topo.SlotsPerMachine
	// Interarrival for 80% load: concurrency = 10·dur/interarrival =
	// 0.8·slots.
	inter := time.Duration(float64(10*dur) / (0.8 * float64(slots)) * 1)
	if inter <= 0 {
		inter = time.Microsecond
	}
	horizon := 60 * dur
	if horizon < 2*time.Second {
		horizon = 2 * time.Second
	}
	if horizon > 20*time.Second {
		horizon = 20 * time.Second
	}
	res, err := runSim(simParams{
		topo: topo, workload: trace.Uniform(10, dur, inter, horizon),
		mode: core.ModeFirmament, seed: o.Seed, policyKind: "loadspread",
	})
	if err != nil {
		return 0, 0, err
	}
	return time.Duration(res.JobResponseTime.Percentile(50) * float64(time.Second)),
		time.Duration(res.JobResponseTime.Percentile(99) * float64(time.Second)), nil
}
