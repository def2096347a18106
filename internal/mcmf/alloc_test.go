package mcmf_test

import (
	"math/rand"
	"testing"

	"firmament/internal/experiments/solvers"
	. "firmament/internal/mcmf"
)

// TestSteadyStateSolveAllocations pins the steady-state allocation count of
// the sequential solvers at zero. Each solver owns its working storage
// (a Scratch pinned to the solver struct, not borrowed from a pool), so
// once the first solves have grown every scratch slice to the graph's size,
// repeat solves over same-shaped graphs must not touch the heap at all —
// the regression the PR6 benchmark run surfaced was exactly a per-solve
// sync.Pool round trip showing up as 1–2 allocs/op.
func TestSteadyStateSolveAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	rng := rand.New(rand.NewSource(11))
	base := RandomSchedulingGraph(rng, 60, 10, 2)

	cases := []struct {
		name  string
		s     Solver
		opts  *Options
		limit float64
	}{
		{"cost-scaling", NewCostScaling(), nil, 0},
		{"succ-shortest-path", solvers.NewSuccessiveShortestPath(), nil, 0},
		{"relaxation", NewRelaxation(), &Options{ArcPrioritization: true}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clone := base.Clone()
			// Warm up: grow every scratch slice to the graph's size.
			for i := 0; i < 3; i++ {
				base.CloneInto(clone)
				if _, err := c.s.Solve(clone, c.opts); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(10, func() {
				base.CloneInto(clone)
				if _, err := c.s.Solve(clone, c.opts); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.limit {
				t.Fatalf("steady-state solve allocates %.1f objects/op, want <= %.0f", got, c.limit)
			}
		})
	}
}

// TestSteadyStatePriceRefineAllocations pins the per-round price refine at
// zero steady-state allocations when run through a pinned Scratch — the
// solver pool calls it every round, so a pooled scratch here reintroduces
// the same per-round allocation churn the solver fix removed.
func TestSteadyStatePriceRefineAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	rng := rand.New(rand.NewSource(11))
	g := RandomSchedulingGraph(rng, 60, 10, 2)
	if _, err := NewRelaxation().Solve(g, &Options{ArcPrioritization: true}); err != nil {
		t.Fatal(err)
	}
	scale := NewCostScaling().ScaleFor(g)
	sc := NewScratch()
	if !sc.PriceRefine(g, scale, 0, nil) {
		t.Fatal("price refine failed on optimal flow")
	}
	got := testing.AllocsPerRun(10, func() {
		if !sc.PriceRefine(g, scale, 0, nil) {
			t.Fatal("price refine failed on optimal flow")
		}
	})
	if got > 0 {
		t.Fatalf("steady-state price refine allocates %.1f objects/op, want 0", got)
	}
}

// TestSteadyStateIncrementalAllocations covers the warm-start path: after
// the initial solve and one mutation round, further identical-shape
// incremental rounds must run allocation-free apart from the change-set
// bookkeeping the caller owns.
func TestSteadyStateIncrementalAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	rng := rand.New(rand.NewSource(11))
	g := RandomSchedulingGraph(rng, 60, 10, 2)
	cs := NewCostScaling()
	if _, err := cs.Solve(g, nil); err != nil {
		t.Fatal(err)
	}
	// One mutation round warms the incremental bookkeeping, then we replay
	// solves of the settled graph: an optimal warm start keeps the epsilon
	// schedule short without hiding scratch churn.
	MutateSchedulingGraph(rand.New(rand.NewSource(99)), g)
	if _, err := cs.SolveIncremental(g, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.SolveIncremental(g, nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := cs.SolveIncremental(g, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("steady-state incremental solve allocates %.1f objects/op, want 0", got)
	}
}
