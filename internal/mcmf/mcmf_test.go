package mcmf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"firmament/internal/flow"
)

// differentialSeeds is the size of the fixed-seed differential corpus: each
// seed generates one random feasible scheduling-shaped graph plus a chain
// of random change batches.
const differentialSeeds = 50

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
