package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/flow"
	"firmament/internal/mcmf"
	"firmament/internal/metrics"
)

// Fig10 reproduces Figure 10: terminating the MCMF algorithms early yields
// poor approximate solutions — thousands of tasks are placed differently
// from the optimum until shortly before completion, so early termination is
// not a viable latency optimization (paper §5.1).
func Fig10(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 10: task misplacements vs early-termination time")
	n := o.scaled(250)
	// Highly utilized cluster (cf. Figure 8's setup).
	sched, cl, store := warmed(n, 0.92, o.Seed, core.ModeQuincy)
	rng := rand.New(rand.NewSource(o.Seed))
	churn(cl, store, rng, time.Second, n/4, cl.TotalSlots()/12)
	gm := sched.GraphManager()
	gm.ApplyEvents(cl.DrainEvents())
	gm.UpdateRound(time.Second)
	base := gm.Graph()

	for _, algo := range []mcmf.Solver{mcmf.NewCostScaling(), mcmf.NewRelaxation()} {
		// Snapshot intermediate mappings during the solve; then compare
		// each against the final optimal mapping.
		type snap struct {
			at       time.Duration
			mappings map[cluster.TaskID]cluster.MachineID
		}
		var snaps []snap
		g := base.Clone()
		gm.SwapGraphForExperiment(g)
		opts := &mcmf.Options{SnapshotHook: func(elapsed time.Duration) {
			snaps = append(snaps, snap{elapsed, gm.ExtractPlacements()})
		}}
		res, err := algo.Solve(g, opts)
		if err != nil {
			gm.SwapGraphForExperiment(base)
			return err
		}
		final := gm.ExtractPlacements()
		gm.SwapGraphForExperiment(base)

		fmt.Fprintf(w, "\n%s (optimal found after %s; %d tasks):\n",
			res.Algorithm, fmtDur(res.Runtime), len(final))
		fmt.Fprintf(w, "%16s %16s\n", "terminated-at", "misplaced-tasks")
		step := len(snaps)/6 + 1
		for i := 0; i < len(snaps); i += step {
			fmt.Fprintf(w, "%16s %16d\n", fmtDur(snaps[i].at), misplaced(snaps[i].mappings, final))
		}
	}
	return nil
}

// misplaced counts tasks whose intermediate placement differs from the
// optimal one: scheduled elsewhere, erroneously unscheduled, or
// erroneously scheduled (paper §5.1's definition).
func misplaced(approx, optimal map[cluster.TaskID]cluster.MachineID) int {
	n := 0
	for id, m := range optimal {
		if am, ok := approx[id]; !ok || am != m {
			n++
		}
	}
	for id := range approx {
		if _, ok := optimal[id]; !ok {
			n++
		}
	}
	return n
}

// Fig11 reproduces Figure 11: incremental cost scaling vs from-scratch
// cost scaling after a realistic inter-round change batch, for the Quincy
// and load-spreading policies. The paper reports ~25% (Quincy) and ~50%
// (load-spreading) improvements.
func Fig11(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 11: incremental vs from-scratch cost scaling")
	n := o.scaled(450)
	fmt.Fprintf(w, "%-16s %16s %16s %10s\n", "policy", "from-scratch", "incremental", "saving")
	for _, kind := range []string{"quincy", "loadspread"} {
		scratch, inc, err := incrementalComparison(n, kind, o, true)
		if err != nil {
			return err
		}
		saving := 100 * (1 - float64(inc)/float64(scratch))
		fmt.Fprintf(w, "%-16s %16s %16s %9.0f%%\n", kind, fmtDur(scratch), fmtDur(inc), saving)
	}
	return nil
}

// Fig11Large is the Figure 11 incremental-vs-from-scratch comparison at
// 1,000 and 5,000 machines, where the warm-start saving the paper reports
// becomes the difference between a sub-second and a multi-second round.
// Guarded behind FIRMAMENT_BENCH_LARGE like Fig7Large.
func Fig11Large(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 11 (large): incremental vs from-scratch cost scaling at 1k/5k machines")
	if !largeVariantsEnabled(w) {
		return nil
	}
	fmt.Fprintf(w, "%9s %-16s %16s %16s %10s\n", "machines", "policy", "from-scratch", "incremental", "saving")
	for _, n := range largeSizes {
		for _, kind := range []string{"quincy", "loadspread"} {
			scratch, inc, err := incrementalComparison(n, kind, o, true)
			if err != nil {
				return err
			}
			saving := 100 * (1 - float64(inc)/float64(scratch))
			fmt.Fprintf(w, "%9d %-16s %16s %16s %9.0f%%\n", n, kind, fmtDur(scratch), fmtDur(inc), saving)
		}
	}
	return nil
}

// incrementalComparison warms a cluster, applies per-round churn, and
// measures a from-scratch cost scaling solve vs an incremental one on the
// same instance. The incremental solver warm-starts from the previous
// round's optimum, with price-refined potentials when refine is true.
func incrementalComparison(n int, policyKind string, o Options, refine bool) (scratch, inc time.Duration, err error) {
	sched, cl, store := warmedWithPolicy(n, 0.6, o.Seed, policyKind)
	rng := rand.New(rand.NewSource(o.Seed + 1))
	cs := mcmf.NewCostScaling()
	gm := sched.GraphManager()
	// Prime the incremental state with an initial optimum.
	if _, err := cs.Solve(gm.Graph(), nil); err != nil {
		return 0, 0, err
	}
	var scratchTotal, incTotal time.Duration
	now := time.Second
	for round := 0; round < o.Rounds; round++ {
		if refine {
			mcmf.PriceRefine(gm.Graph(), cs.ScaleFor(gm.Graph()), 0, nil)
		}
		churn(cl, store, rng, now, n/8+1, n/8+1)
		gm.ApplyEvents(cl.DrainEvents())
		gm.UpdateRound(now)
		changes := gm.Changes()

		g := gm.Graph()
		incClone := g.Clone()
		t0 := time.Now()
		if _, err := cs.SolveIncremental(incClone, changes, nil); err != nil {
			return 0, 0, err
		}
		incTotal += time.Since(t0)

		scratchClone := g.Clone()
		t1 := time.Now()
		if _, err := mcmf.NewCostScaling().Solve(scratchClone, nil); err != nil {
			return 0, 0, err
		}
		scratchTotal += time.Since(t1)

		// Install the optimal flow as the next round's warm state.
		if err := g.CopyFlowAndPotentialsFrom(incClone); err != nil {
			return 0, 0, err
		}
		changes.Reset()
		r := gm.ExtractRound()
		sched.ApplyRound(&r, now)
		now += time.Second
	}
	k := time.Duration(o.Rounds)
	return scratchTotal / k, incTotal / k, nil
}

// Fig12 reproduces Figure 12: the two problem-specific heuristics.
// (a) arc prioritization cuts relaxation runtime on contended graphs
// (paper: ~45%); (b) efficient task removal speeds incremental cost
// scaling (paper: ~10%).
func Fig12(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 12a: relaxation with/without arc prioritization (contended graph)")
	n := o.scaled(450)
	g, err := loadSpreadContendedGraph(n, o.scaled(2500), o.Seed)
	if err != nil {
		return err
	}
	noAP, ok1 := timedSolve(g, mcmf.NewRelaxation(), &mcmf.Options{ArcPrioritization: false}, o.SolverTimeout)
	withAP, ok2 := timedSolve(g, mcmf.NewRelaxation(), &mcmf.Options{ArcPrioritization: true}, o.SolverTimeout)
	fmt.Fprintf(w, "%-12s %16s\n%-12s %16s\n", "no AP", durOrTimeout(noAP, ok1, o.SolverTimeout),
		"AP", durOrTimeout(withAP, ok2, o.SolverTimeout))
	if ok1 && ok2 && noAP > 0 {
		fmt.Fprintf(w, "reduction: %.0f%% (paper: 45%%)\n", 100*(1-float64(withAP)/float64(noAP)))
	}

	header(w, "Figure 12b: incremental cost scaling with/without efficient task removal")
	withTR, withoutTR, err := taskRemovalRun(n, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %16s\n%-12s %16s\n", "no TR", fmtDur(withoutTR), "TR", fmtDur(withTR))
	if withoutTR > 0 {
		fmt.Fprintf(w, "reduction: %.0f%% (paper: 10%%)\n", 100*(1-float64(withTR)/float64(withoutTR)))
	}
	return nil
}

// taskRemovalRun measures incremental cost scaling over rounds in which
// batches of running tasks complete. The comparison is controlled: each
// round removes tasks with the drain heuristic while logging the surviving
// drained arcs, then reconstructs the non-drained state (stranded flow,
// broken feasibility) on a clone by re-pushing the logged units. Both
// variants therefore solve byte-identical topologies differing only in the
// §5.3.2 treatment.
func taskRemovalRun(n int, o Options) (withTR, withoutTR time.Duration, err error) {
	sched, cl, store := warmedWithPolicy(n, 0.7, o.Seed, "quincy")
	gm := sched.GraphManager()
	rng := rand.New(rand.NewSource(o.Seed))
	cs := mcmf.NewCostScaling()
	// Prime the incremental state.
	if _, err := cs.Solve(gm.Graph(), nil); err != nil {
		return 0, 0, err
	}
	now := time.Second
	for round := 0; round < o.Rounds; round++ {
		var drained []flow.ArcID
		gm.DrainLog = &drained
		churn(cl, store, rng, now, n/4+1, 0) // completions only
		gm.ApplyEvents(cl.DrainEvents())
		gm.DrainLog = nil
		gm.UpdateRound(now)
		changes := gm.Changes()
		g := gm.Graph()

		// Variant A: heuristic state (feasible flow).
		cloneA := g.Clone()
		t0 := time.Now()
		if _, err := cs.SolveIncremental(cloneA, changes, nil); err != nil {
			return 0, 0, err
		}
		withTR += time.Since(t0)

		// Variant B: reconstruct the non-drained state by re-stranding the
		// drained flow on surviving arcs.
		cloneB := g.Clone()
		for _, a := range drained {
			if cloneB.ArcInUse(a) && cloneB.Resid(a) > 0 {
				cloneB.Push(a, 1)
			}
		}
		t1 := time.Now()
		if _, err := mcmf.NewCostScaling().SolveIncremental(cloneB, changes, nil); err != nil {
			return 0, 0, err
		}
		withoutTR += time.Since(t1)

		// Continue from the heuristic solution.
		if err := g.CopyFlowAndPotentialsFrom(cloneA); err != nil {
			return 0, 0, err
		}
		changes.Reset()
		r := gm.ExtractRound()
		sched.ApplyRound(&r, now)
		now += time.Second
	}
	k := time.Duration(o.Rounds)
	return withTR / k, withoutTR / k, nil
}

// AblationIncrementalRelaxation measures the §5.2 finding the paper reports
// without a figure: incremental relaxation "counter-intuitively can also be
// slower than running from scratch", because the warm state contains large
// zero-reduced-cost trees that every new source must traverse. We compare
// from-scratch vs incremental relaxation across churn rounds.
func AblationIncrementalRelaxation(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Ablation (§5.2): incremental vs from-scratch relaxation")
	n := o.scaled(450)
	sched, cl, store := warmedWithPolicy(n, 0.8, o.Seed, "quincy")
	gm := sched.GraphManager()
	relax := mcmf.NewRelaxation()
	ap := &mcmf.Options{ArcPrioritization: true}
	// Prime with an optimal solution.
	if _, err := relax.Solve(gm.Graph(), ap); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	var scratch, inc time.Duration
	now := time.Second
	for round := 0; round < o.Rounds; round++ {
		churn(cl, store, rng, now, n/8+1, n/8+1)
		gm.ApplyEvents(cl.DrainEvents())
		gm.UpdateRound(now)
		gm.Changes().Reset()
		g := gm.Graph()

		incClone := g.Clone()
		t0 := time.Now()
		if _, err := relax.SolveIncremental(incClone, nil, ap); err != nil {
			return err
		}
		inc += time.Since(t0)

		scratchClone := g.Clone()
		t1 := time.Now()
		if _, err := mcmf.NewRelaxation().Solve(scratchClone, ap); err != nil {
			return err
		}
		scratch += time.Since(t1)

		if err := g.CopyFlowAndPotentialsFrom(incClone); err != nil {
			return err
		}
		r := gm.ExtractRound()
		sched.ApplyRound(&r, now)
		now += time.Second
	}
	k := time.Duration(o.Rounds)
	fmt.Fprintf(w, "%-24s %16s\n%-24s %16s\n",
		"from-scratch relaxation", fmtDur(scratch/k),
		"incremental relaxation", fmtDur(inc/k))
	fmt.Fprintf(w, "paper §5.2: incremental relaxation helps only when tasks\n"+
		"are not connected to a large zero-reduced-cost tree; Firmament\n"+
		"therefore runs relaxation from scratch each round.\n")
	return nil
}

// Fig13 reproduces Figure 13: applying price refine to a winning
// relaxation solution before the next incremental cost scaling run makes
// that run ~4× faster in 90% of cases (paper §6.2).
func Fig13(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Figure 13: incremental cost scaling runtime with/without price refine")
	n := o.scaled(450)
	var with, without metrics.Dist
	for _, refine := range []bool{true, false} {
		sched, cl, store := warmedWithPolicy(n, 0.8, o.Seed, "quincy")
		rng := rand.New(rand.NewSource(o.Seed))
		relax := mcmf.NewRelaxation()
		cs := mcmf.NewCostScaling()
		now := time.Second
		for round := 0; round < o.Rounds; round++ {
			gm := sched.GraphManager()
			// Relaxation "wins" the round on the live graph.
			if _, err := relax.Solve(gm.Graph(), nil); err != nil {
				return err
			}
			if refine {
				mcmf.PriceRefine(gm.Graph(), cs.ScaleFor(gm.Graph()), 0, nil)
			}
			r := gm.ExtractRound()
			sched.ApplyRound(&r, now)
			// Next round's changes arrive...
			churn(cl, store, rng, now, n/8+1, n/8+1)
			gm.ApplyEvents(cl.DrainEvents())
			gm.UpdateRound(now)
			changes := gm.Changes()
			// ...and incremental cost scaling starts from the relaxation
			// solution.
			clone := gm.Graph().Clone()
			t0 := time.Now()
			if _, err := cs.SolveIncremental(clone, changes, nil); err != nil {
				return err
			}
			dt := time.Since(t0)
			changes.Reset()
			if refine {
				with.AddDuration(dt)
			} else {
				without.AddDuration(dt)
			}
			now += time.Second
		}
	}
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "configuration", "p10", "p50", "p90")
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "price refine",
		fmtDur(time.Duration(with.Percentile(10)*float64(time.Second))),
		fmtDur(time.Duration(with.Percentile(50)*float64(time.Second))),
		fmtDur(time.Duration(with.Percentile(90)*float64(time.Second))))
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "no price refine",
		fmtDur(time.Duration(without.Percentile(10)*float64(time.Second))),
		fmtDur(time.Duration(without.Percentile(50)*float64(time.Second))),
		fmtDur(time.Duration(without.Percentile(90)*float64(time.Second))))
	if m := with.Percentile(90); m > 0 {
		fmt.Fprintf(w, "p90 speedup from price refine: %.1fx (paper: 4x)\n", without.Percentile(90)/m)
	}
	return nil
}
