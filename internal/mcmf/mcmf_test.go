package mcmf

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"firmament/internal/flow"
)

// allSolvers returns fresh instances of the four algorithms (paper §4).
func allSolvers() []Solver {
	return []Solver{
		NewCycleCanceling(),
		NewSuccessiveShortestPath(),
		NewCostScaling(),
		NewRelaxation(),
	}
}

// fig5Graph builds the example network of paper Figure 5: two jobs with
// three and two tasks, four machines, two unscheduled aggregators. The
// red min-cost solution in the figure schedules every task except T01 and
// has cost 2+1+4+2 (scheduled tasks) + 5 (T01 unscheduled) = 14.
func fig5Graph(t testing.TB) (*flow.Graph, int64) {
	t.Helper()
	g := flow.NewGraph(12, 20)
	t00 := g.AddNode(1, flow.KindTask)
	t01 := g.AddNode(1, flow.KindTask)
	t02 := g.AddNode(1, flow.KindTask)
	t10 := g.AddNode(1, flow.KindTask)
	t11 := g.AddNode(1, flow.KindTask)
	m0 := g.AddNode(0, flow.KindMachine)
	m1 := g.AddNode(0, flow.KindMachine)
	m2 := g.AddNode(0, flow.KindMachine)
	m3 := g.AddNode(0, flow.KindMachine)
	u0 := g.AddNode(0, flow.KindUnsched)
	u1 := g.AddNode(0, flow.KindUnsched)
	sink := g.AddNode(-5, flow.KindSink)

	// Arc labels from Figure 5 (costs; all unit capacity except U->S).
	g.AddArc(t00, m0, 1, 2)
	g.AddArc(t00, u0, 1, 5)
	g.AddArc(t01, u0, 1, 5)
	g.AddArc(t01, m1, 1, 6) // preference arc, too expensive vs slot count
	g.AddArc(t02, m1, 1, 1)
	g.AddArc(t02, u0, 1, 5)
	g.AddArc(t10, m2, 1, 4)
	g.AddArc(t10, u1, 1, 7)
	g.AddArc(t11, m3, 1, 2)
	g.AddArc(t11, u1, 1, 7)
	g.AddArc(m0, sink, 1, 0)
	g.AddArc(m1, sink, 1, 0)
	g.AddArc(m2, sink, 1, 0)
	g.AddArc(m3, sink, 1, 0)
	g.AddArc(u0, sink, 3, 0)
	g.AddArc(u1, sink, 2, 0)
	return g, 14
}

func TestSolversOnFigure5(t *testing.T) {
	for _, s := range allSolvers() {
		t.Run(s.Name(), func(t *testing.T) {
			g, want := fig5Graph(t)
			res, err := s.Solve(g, nil)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Cost != want {
				t.Fatalf("cost = %d, want %d", res.Cost, want)
			}
			if err := g.CheckFeasible(); err != nil {
				t.Fatalf("solution infeasible: %v", err)
			}
			if err := g.CheckOptimal(); err != nil {
				t.Fatalf("solution not optimal: %v", err)
			}
		})
	}
}

func TestSolversOnEmptyGraph(t *testing.T) {
	for _, s := range allSolvers() {
		g := flow.NewGraph(0, 0)
		res, err := s.Solve(g, nil)
		if err != nil {
			t.Fatalf("%s on empty graph: %v", s.Name(), err)
		}
		if res.Cost != 0 {
			t.Fatalf("%s cost = %d on empty graph", s.Name(), res.Cost)
		}
	}
}

func TestSolversOnSingleTask(t *testing.T) {
	for _, s := range allSolvers() {
		g := flow.NewGraph(3, 2)
		task := g.AddNode(1, flow.KindTask)
		m := g.AddNode(0, flow.KindMachine)
		sink := g.AddNode(-1, flow.KindSink)
		tm := g.AddArc(task, m, 1, 3)
		ms := g.AddArc(m, sink, 1, 0)
		res, err := s.Solve(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Cost != 3 || g.Flow(tm) != 1 || g.Flow(ms) != 1 {
			t.Fatalf("%s: cost=%d flows=%d,%d", s.Name(), res.Cost, g.Flow(tm), g.Flow(ms))
		}
	}
}

func TestSolversPreferCheaperMachine(t *testing.T) {
	for _, s := range allSolvers() {
		g := flow.NewGraph(4, 4)
		task := g.AddNode(1, flow.KindTask)
		cheap := g.AddNode(0, flow.KindMachine)
		costly := g.AddNode(0, flow.KindMachine)
		sink := g.AddNode(-1, flow.KindSink)
		a := g.AddArc(task, cheap, 1, 2)
		b := g.AddArc(task, costly, 1, 9)
		g.AddArc(cheap, sink, 1, 0)
		g.AddArc(costly, sink, 1, 0)
		if _, err := s.Solve(g, nil); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if g.Flow(a) != 1 || g.Flow(b) != 0 {
			t.Fatalf("%s routed through the expensive machine", s.Name())
		}
	}
}

func TestSolversContendedSlot(t *testing.T) {
	// Ten tasks, one slot: exactly one schedules (the cheapest), the rest
	// drain through the unscheduled aggregator.
	for _, s := range allSolvers() {
		g := flow.NewGraph(14, 30)
		sink := g.AddNode(-10, flow.KindSink)
		m := g.AddNode(0, flow.KindMachine)
		u := g.AddNode(0, flow.KindUnsched)
		g.AddArc(m, sink, 1, 0)
		g.AddArc(u, sink, 10, 0)
		for i := 0; i < 10; i++ {
			task := g.AddNode(1, flow.KindTask)
			g.AddArc(task, m, 1, int64(i+1))
			g.AddArc(task, u, 1, 100)
		}
		res, err := s.Solve(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want := int64(1 + 9*100)
		if res.Cost != want {
			t.Fatalf("%s: cost = %d, want %d", s.Name(), res.Cost, want)
		}
	}
}

func TestSolversNegativeCosts(t *testing.T) {
	// Running tasks are often modelled with negative-cost arcs to their
	// current machine (stickiness); solvers must handle them.
	for _, s := range allSolvers() {
		g := flow.NewGraph(4, 4)
		task := g.AddNode(1, flow.KindTask)
		m := g.AddNode(0, flow.KindMachine)
		other := g.AddNode(0, flow.KindMachine)
		sink := g.AddNode(-1, flow.KindSink)
		cur := g.AddArc(task, m, 1, -5)
		g.AddArc(task, other, 1, 2)
		g.AddArc(m, sink, 1, 0)
		g.AddArc(other, sink, 1, 0)
		res, err := s.Solve(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Cost != -5 || g.Flow(cur) != 1 {
			t.Fatalf("%s: cost=%d, stayed=%v", s.Name(), res.Cost, g.Flow(cur) == 1)
		}
	}
}

func TestSolversInfeasible(t *testing.T) {
	for _, s := range allSolvers() {
		g := flow.NewGraph(3, 1)
		task := g.AddNode(1, flow.KindTask)
		m := g.AddNode(0, flow.KindMachine)
		g.AddNode(-1, flow.KindSink) // no arc from m to sink
		g.AddArc(task, m, 1, 1)
		_, err := s.Solve(g, nil)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible", s.Name(), err)
		}
	}
}

func TestSolversRespectStop(t *testing.T) {
	for _, s := range allSolvers() {
		g := randomSchedulingGraph(rand.New(rand.NewSource(7)), 200, 40, 4)
		var stop atomic.Bool
		stop.Store(true)
		_, err := s.Solve(g, &Options{Stop: &stop})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: err = %v, want ErrStopped", s.Name(), err)
		}
	}
}

// randomSchedulingGraph builds a feasible scheduling-shaped graph: tasks
// with preference arcs to a few machines plus a high-cost unscheduled
// fallback, machines with multi-slot arcs to the sink.
func randomSchedulingGraph(rng *rand.Rand, tasks, machines, slots int) *flow.Graph {
	g := flow.NewGraph(tasks+machines+2, tasks*5+machines)
	sink := g.AddNode(int64(-tasks), flow.KindSink)
	u := g.AddNode(0, flow.KindUnsched)
	g.AddArc(u, sink, int64(tasks), 0)
	ms := make([]flow.NodeID, machines)
	for i := range ms {
		ms[i] = g.AddNode(0, flow.KindMachine)
		g.AddArc(ms[i], sink, int64(slots), 0)
	}
	for i := 0; i < tasks; i++ {
		task := g.AddNode(1, flow.KindTask)
		prefs := 1 + rng.Intn(4)
		for p := 0; p < prefs; p++ {
			m := ms[rng.Intn(machines)]
			g.AddArc(task, m, 1, int64(rng.Intn(50)))
		}
		g.AddArc(task, u, 1, int64(60+rng.Intn(60)))
	}
	return g
}

// randomGeneralGraph builds a feasible network with multi-unit supplies,
// larger capacities and negative costs, to exercise the solvers beyond
// scheduling shapes.
func randomGeneralGraph(rng *rand.Rand, n int) *flow.Graph {
	g := flow.NewGraph(n+2, n*4)
	sink := g.AddNode(0, flow.KindSink)
	var totalSupply int64
	mids := make([]flow.NodeID, n)
	for i := range mids {
		mids[i] = g.AddNode(0, flow.KindOther)
	}
	// Layered arcs forward (avoid negative cycles by construction).
	for i := range mids {
		for j := i + 1; j < len(mids) && j < i+4; j++ {
			g.AddArc(mids[i], mids[j], int64(1+rng.Intn(6)), int64(rng.Intn(25)-6))
		}
		g.AddArc(mids[i], sink, int64(2+rng.Intn(6)), int64(rng.Intn(30)))
	}
	for i := 0; i < n/2; i++ {
		s := g.AddNode(int64(1+rng.Intn(3)), flow.KindTask)
		totalSupply += g.Supply(s)
		g.AddArc(s, mids[rng.Intn(len(mids))], 4, int64(rng.Intn(20)))
		// Guaranteed fallback path for feasibility.
		g.AddArc(s, sink, 4, 200)
	}
	g.SetSupply(sink, -totalSupply)
	return g
}

// TestQuickSolversAgree is the central cross-validation property: on random
// feasible graphs, all four independently implemented algorithms must
// produce the same minimum cost, and each flow must pass feasibility and
// negative-cycle optimality checks.
func TestQuickSolversAgree(t *testing.T) {
	check := func(seed int64, scheduling bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var base *flow.Graph
		if scheduling {
			base = randomSchedulingGraph(rng, 20+rng.Intn(40), 5+rng.Intn(10), 1+rng.Intn(3))
		} else {
			base = randomGeneralGraph(rng, 8+rng.Intn(12))
		}
		var costs []int64
		for _, s := range allSolvers() {
			g := base.Clone()
			res, err := s.Solve(g, nil)
			if err != nil {
				t.Logf("%s failed: %v", s.Name(), err)
				return false
			}
			if err := g.CheckFeasible(); err != nil {
				t.Logf("%s infeasible: %v", s.Name(), err)
				return false
			}
			if err := g.CheckOptimal(); err != nil {
				t.Logf("%s suboptimal: %v", s.Name(), err)
				return false
			}
			if res.Cost != g.TotalCost() {
				t.Logf("%s reported cost %d but graph has %d", s.Name(), res.Cost, g.TotalCost())
				return false
			}
			costs = append(costs, res.Cost)
		}
		for _, c := range costs[1:] {
			if c != costs[0] {
				t.Logf("cost mismatch: %v", costs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIncrementalMatchesFromScratch: after arbitrary graph changes, an
// incremental solve must reach the same optimal cost as a from-scratch one.
func TestQuickIncrementalMatchesFromScratch(t *testing.T) {
	incrementals := []IncrementalSolver{NewCostScaling(), NewRelaxation()}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomSchedulingGraph(rng, 15+rng.Intn(25), 4+rng.Intn(8), 1+rng.Intn(3))
		for _, inc := range incrementals {
			g := base.Clone()
			if _, err := inc.Solve(g, nil); err != nil {
				t.Logf("%s initial solve: %v", inc.Name(), err)
				return false
			}
			// Mutate: tweak some arc costs, add tasks, change a capacity.
			mutateSchedulingGraph(rng, g)
			ref := g.Clone()
			incRes, err := inc.SolveIncremental(g, nil)
			if err != nil {
				t.Logf("%s incremental solve: %v", inc.Name(), err)
				return false
			}
			fresh := NewCostScaling()
			refRes, err := fresh.Solve(ref, nil)
			if err != nil {
				t.Logf("reference solve: %v", err)
				return false
			}
			if incRes.Cost != refRes.Cost {
				t.Logf("%s incremental cost %d != from-scratch %d (seed %d)",
					inc.Name(), incRes.Cost, refRes.Cost, seed)
				return false
			}
			if err := g.CheckFeasible(); err != nil {
				t.Logf("%s incremental infeasible: %v", inc.Name(), err)
				return false
			}
			if err := g.CheckOptimal(); err != nil {
				t.Logf("%s incremental suboptimal: %v", inc.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mutateSchedulingGraph applies a random batch of the §5.2 change types.
func mutateSchedulingGraph(rng *rand.Rand, g *flow.Graph) {
	var sink, unsched flow.NodeID = flow.InvalidNode, flow.InvalidNode
	var machines []flow.NodeID
	var tasks []flow.NodeID
	g.Nodes(func(id flow.NodeID) {
		switch g.Kind(id) {
		case flow.KindSink:
			sink = id
		case flow.KindUnsched:
			unsched = id
		case flow.KindMachine:
			machines = append(machines, id)
		case flow.KindTask:
			tasks = append(tasks, id)
		}
	})
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // cost change on a random task arc
			task := tasks[rng.Intn(len(tasks))]
			for _, a := range g.Out(task) {
				if g.IsForward(a) {
					g.SetArcCost(a, int64(rng.Intn(80)))
					break
				}
			}
		case 1: // new task arrives
			task := g.AddNode(1, flow.KindTask)
			g.AddArc(task, machines[rng.Intn(len(machines))], 1, int64(rng.Intn(50)))
			g.AddArc(task, unsched, 1, int64(60+rng.Intn(60)))
			g.SetSupply(sink, g.Supply(sink)-1)
			// Keep the graph feasible: the unscheduled aggregator must be
			// able to absorb every task.
			for _, a := range g.Out(unsched) {
				if g.IsForward(a) && g.Head(a) == sink {
					g.SetArcCapacity(a, g.Capacity(a)+1)
					break
				}
			}
			tasks = append(tasks, task)
		case 2: // machine slot count changes
			m := machines[rng.Intn(len(machines))]
			for _, a := range g.Out(m) {
				if g.IsForward(a) && g.Head(a) == sink {
					g.SetArcCapacity(a, int64(1+rng.Intn(4)))
					break
				}
			}
		}
	}
}

func TestMaxFlowRoutesAllSupply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomSchedulingGraph(rng, 50, 10, 2)
	unrouted, err := NewScratch().maxFlow(g, nil)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if unrouted != 0 {
		t.Fatalf("unrouted = %d, want 0", unrouted)
	}
	if err := g.CheckFeasible(); err != nil {
		t.Fatalf("max-flow result infeasible: %v", err)
	}
}

func TestMaxFlowReportsUnroutable(t *testing.T) {
	g := flow.NewGraph(3, 1)
	a := g.AddNode(2, flow.KindTask)
	b := g.AddNode(-2, flow.KindSink)
	g.AddArc(a, b, 1, 0) // capacity 1 < supply 2
	unrouted, err := NewScratch().maxFlow(g, nil)
	if err != nil {
		t.Fatalf("maxFlow: %v", err)
	}
	if unrouted != 1 {
		t.Fatalf("unrouted = %d, want 1", unrouted)
	}
}

func TestPriceRefineFindsPotentials(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomSchedulingGraph(rng, 40, 8, 2)
	r := NewRelaxation()
	if _, err := r.Solve(g, nil); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// The optimal flow must admit 0-optimal potentials in any cost scale.
	cs := NewCostScaling()
	cs.ensureScale(g, true)
	if !NewScratch().PriceRefine(g, cs.Scale(), 0, nil) {
		t.Fatal("PriceRefine failed on an optimal flow")
	}
	// Verify eps-optimality of the refined potentials in the scaled domain.
	for a := 0; a < g.ArcIDBound(); a++ {
		arc := flow.ArcID(a)
		if !g.ArcInUse(arc) || g.Resid(arc) <= 0 {
			continue
		}
		if rc := cs.scaledReducedCost(g, arc); rc < 0 {
			t.Fatalf("arc %d has scaled reduced cost %d < 0 after price refine", a, rc)
		}
	}
}

// TestInitPotentialsNonNegativeReducedCosts prices the zero flow on a graph
// with negative-cost arcs but no negative cycle, as SSP does before its first
// augmentation: PriceRefine at scale 1 and eps 0.
func TestInitPotentialsNonNegativeReducedCosts(t *testing.T) {
	g := randomGeneralGraph(rand.New(rand.NewSource(5)), 12)
	if !NewScratch().PriceRefine(g, 1, 0, nil) {
		t.Fatal("PriceRefine failed on acyclic-negative graph")
	}
	if err := g.CheckReducedCostOptimal(0); err != nil {
		t.Fatalf("reduced costs negative after PriceRefine: %v", err)
	}
}

func TestPriceRefineRejectsSuboptimalFlow(t *testing.T) {
	// Flow routed the expensive way has a negative residual cycle; no
	// potentials can make it 0-optimal.
	g := flow.NewGraph(3, 3)
	s := g.AddNode(1, flow.KindTask)
	mid := g.AddNode(0, flow.KindOther)
	d := g.AddNode(-1, flow.KindSink)
	g.AddArc(s, d, 1, 1)
	e1 := g.AddArc(s, mid, 1, 5)
	e2 := g.AddArc(mid, d, 1, 5)
	g.Push(e1, 1)
	g.Push(e2, 1)
	sc := NewScratch()
	if sc.PriceRefine(g, 1, 0, nil) {
		t.Fatal("PriceRefine accepted a suboptimal flow at eps=0")
	}
	// With a large enough eps the same flow is eps-optimal.
	if !sc.PriceRefine(g, 1, 10, nil) {
		t.Fatal("PriceRefine rejected a flow that is 10-optimal")
	}
}

func TestRelaxationArcPrioritizationSameCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := randomSchedulingGraph(rng, 60, 6, 3)
	r := NewRelaxation()
	g1 := base.Clone()
	res1, err := r.Solve(g1, &Options{ArcPrioritization: false})
	if err != nil {
		t.Fatal(err)
	}
	g2 := base.Clone()
	res2, err := NewRelaxation().Solve(g2, &Options{ArcPrioritization: true})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cost != res2.Cost {
		t.Fatalf("AP changed the optimum: %d vs %d", res1.Cost, res2.Cost)
	}
	if err := g2.CheckOptimal(); err != nil {
		t.Fatalf("AP solution suboptimal: %v", err)
	}
}

func TestCostScalingAlphaFactorSameCost(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randomSchedulingGraph(rng, 50, 8, 2)
	g1 := base.Clone()
	res1, err := NewCostScaling().Solve(g1, &Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2 := base.Clone()
	res2, err := NewCostScaling().Solve(g2, &Options{Alpha: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cost != res2.Cost {
		t.Fatalf("alpha changed the optimum: %d vs %d", res1.Cost, res2.Cost)
	}
}
