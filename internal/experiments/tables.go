package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"firmament/internal/core"
	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// Tab1 prints Table 1: the worst-case complexities of the four MCMF
// algorithms. N = nodes, M = arcs, C = largest arc cost, U = largest arc
// capacity; in scheduling graphs M > N > C > U.
func Tab1(w io.Writer, o Options) error {
	header(w, "Table 1: worst-case MCMF time complexities")
	rows := [][2]string{
		{"Relaxation", "O(M³·C·U²)"},
		{"Cycle canceling", "O(N·M²·C·U)"},
		{"Cost scaling", "O(N²·M·log(N·C))"},
		{"Successive shortest path", "O(N²·U·log N)"},
	}
	fmt.Fprintf(w, "%-28s %s\n", "Algorithm", "Worst-case complexity")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w, "\nDespite the worst bound, relaxation wins on scheduling graphs (Figure 7).")
	return nil
}

// Tab2 prints Table 2 — the per-iteration invariants each algorithm
// maintains — and verifies them live using the solver snapshot hooks on a
// scheduling graph (the same checks run in the test suite).
func Tab2(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Table 2: per-iteration algorithm invariants")
	fmt.Fprintf(w, "%-28s %12s %18s %14s\n", "Algorithm", "Feasibility", "Red. cost optim.", "eps-optimality")
	fmt.Fprintf(w, "%-28s %12s %18s %14s\n", "Relaxation", "-", "yes", "-")
	fmt.Fprintf(w, "%-28s %12s %18s %14s\n", "Cycle canceling", "yes", "-", "-")
	fmt.Fprintf(w, "%-28s %12s %18s %14s\n", "Cost scaling", "yes", "-", "yes")
	fmt.Fprintf(w, "%-28s %12s %18s %14s\n", "Successive shortest path", "-", "yes", "-")

	sched, _, _ := warmed(o.scaled(50), 0.6, o.Seed, core.ModeQuincy)
	base := sched.GraphManager().Graph()
	type check struct {
		solver mcmf.Solver
		verify func(*flow.Graph) error
		label  string
	}
	checks := []check{
		{mcmf.NewCycleCanceling(), func(g *flow.Graph) error { return g.CheckFeasible() }, "cycle canceling feasibility"},
		{mcmf.NewCostScaling(), func(g *flow.Graph) error { return g.CheckFeasible() }, "cost scaling feasibility"},
		{mcmf.NewRelaxation(), func(g *flow.Graph) error { return g.CheckReducedCostOptimal(0) }, "relaxation reduced cost optimality"},
		{mcmf.NewSuccessiveShortestPath(), func(g *flow.Graph) error { return g.CheckReducedCostOptimal(0) }, "SSP reduced cost optimality"},
	}
	fmt.Fprintln(w, "\nlive verification on a scheduling graph:")
	for _, c := range checks {
		g := base.Clone()
		violations := 0
		snaps := 0
		opts := &mcmf.Options{SnapshotHook: func(time.Duration) {
			snaps++
			if err := c.verify(g); err != nil {
				violations++
			}
		}}
		if _, err := c.solver.Solve(g, opts); err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		status := "PASS"
		if violations > 0 {
			status = fmt.Sprintf("FAIL (%d violations)", violations)
		}
		fmt.Fprintf(w, "  %-40s %d snapshots: %s\n", c.label, snaps, status)
	}
	return nil
}

// Tab3 prints Table 3 — which arc changes invalidate an existing solution —
// and verifies each cell empirically: random optimal solutions receive each
// change class and the complementary slackness certificate is re-checked.
func Tab3(w io.Writer, o Options) error {
	o = o.withDefaults()
	header(w, "Table 3: arc changes requiring re-optimization")
	fmt.Fprintln(w, "change type          | rc < 0               | rc = 0          | rc > 0")
	fmt.Fprintln(w, "---------------------+----------------------+-----------------+----------------")
	fmt.Fprintln(w, "increase capacity    | breaks optimality    | ok              | ok")
	fmt.Fprintln(w, "decrease capacity    | breaks feasibility if flow > new capacity (all columns)")
	fmt.Fprintln(w, "increase cost        | breaks if rc'>0, f>0 | breaks if f > 0 | ok")
	fmt.Fprintln(w, "decrease cost        | ok                   | breaks if rc'<0 | breaks if rc'<0")

	// Empirical verification across random optimal solutions.
	rng := rand.New(rand.NewSource(o.Seed))
	trials, correct := 0, 0
	sc := mcmf.NewScratch()
	for i := 0; i < 400; i++ {
		g := randomSched(rng)
		if _, err := mcmf.NewCostScaling().Solve(g, nil); err != nil {
			continue
		}
		if !sc.PriceRefine(g, 1, 0, nil) {
			continue
		}
		var arcs []flow.ArcID
		g.ForwardArcs(func(a flow.ArcID) { arcs = append(arcs, a) })
		a := arcs[rng.Intn(len(arcs))]
		var predicted mcmf.ChangeEffect
		if rng.Intn(2) == 0 {
			newCap := int64(rng.Intn(4))
			predicted = mcmf.PredictCapacityChange(g, a, newCap)
			g.SetArcCapacity(a, newCap)
		} else {
			newCost := int64(rng.Intn(120) - 10)
			predicted = mcmf.PredictCostChange(g, a, newCost)
			g.SetArcCost(a, newCost)
		}
		feasible, optimal := mcmf.CertificateIntact(g)
		trials++
		if predicted.BreaksFeasibility != feasible && predicted.BreaksOptimality != optimal {
			correct++
		}
	}
	fmt.Fprintf(w, "\nempirical verification: %d/%d random arc changes classified correctly\n", correct, trials)
	if correct != trials {
		return fmt.Errorf("table 3 classification mismatch: %d/%d", correct, trials)
	}
	return nil
}

// randomSched builds a small random scheduling graph for Tab3 trials.
func randomSched(rng *rand.Rand) *flow.Graph {
	tasks := 8 + rng.Intn(20)
	machines := 3 + rng.Intn(5)
	g := flow.NewGraph(tasks+machines+2, tasks*4)
	sink := g.AddNode(int64(-tasks), flow.KindSink)
	u := g.AddNode(0, flow.KindUnsched)
	g.AddArc(u, sink, int64(tasks), 0)
	ms := make([]flow.NodeID, machines)
	for i := range ms {
		ms[i] = g.AddNode(0, flow.KindMachine)
		g.AddArc(ms[i], sink, int64(1+rng.Intn(3)), 0)
	}
	for i := 0; i < tasks; i++ {
		t := g.AddNode(1, flow.KindTask)
		for p := 0; p < 1+rng.Intn(3); p++ {
			g.AddArc(t, ms[rng.Intn(machines)], 1, int64(rng.Intn(40)))
		}
		g.AddArc(t, u, 1, int64(50+rng.Intn(50)))
	}
	return g
}
