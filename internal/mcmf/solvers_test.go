// The tests in package mcmf_test run the shipped solvers beside the
// reference solvers of internal/experiments/solvers, which imports mcmf.
// They share the graph generators of the internal tests through
// export_test.go.
package mcmf_test

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"firmament/internal/experiments/solvers"
	"firmament/internal/flow"
	. "firmament/internal/mcmf"
)

// allSolvers returns fresh instances of the four algorithms (paper §4).
func allSolvers() []Solver {
	return []Solver{
		solvers.NewCycleCanceling(),
		solvers.NewSuccessiveShortestPath(),
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
		g := RandomSchedulingGraph(rand.New(rand.NewSource(7)), 200, 40, 4)
		var stop atomic.Bool
		stop.Store(true)
		_, err := s.Solve(g, &Options{Stop: &stop})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: err = %v, want ErrStopped", s.Name(), err)
		}
	}
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
			base = RandomSchedulingGraph(rng, 20+rng.Intn(40), 5+rng.Intn(10), 1+rng.Intn(3))
		} else {
			base = RandomGeneralGraph(rng, 8+rng.Intn(12))
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

func TestMaxFlowRoutesAllSupply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomSchedulingGraph(rng, 50, 10, 2)
	unrouted, err := new(solvers.Buffers).MaxFlow(g, nil)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
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
	unrouted, err := new(solvers.Buffers).MaxFlow(g, nil)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if unrouted != 1 {
		t.Fatalf("unrouted = %d, want 1", unrouted)
	}
}
