package mcmf_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"firmament/internal/flow"
	. "firmament/internal/mcmf"
)

// agreeFromScratch runs all four independently implemented MCMF algorithms
// from scratch on clones of base and fails the test unless every one
// reports the identical optimal cost with a feasible, negative-cycle-free
// flow — the paper Table 1 invariant. Each algorithm also solves a second
// clone with a fresh instance and must repeat its first run exactly (see
// requireSameRun). It returns the agreed cost.
func agreeFromScratch(t *testing.T, base *flow.Graph, label string) int64 {
	t.Helper()
	var costs []int64
	var names []string
	twins := allSolvers()
	for i, s := range allSolvers() {
		g := base.Clone()
		res, err := s.Solve(g, nil)
		if err != nil {
			t.Fatalf("%s: %s failed: %v", label, s.Name(), err)
		}
		twin := base.Clone()
		twinRes, err := twins[i].Solve(twin, nil)
		if err != nil {
			t.Fatalf("%s: %s twin run failed: %v", label, s.Name(), err)
		}
		requireSameRun(t, label, s.Name(), res, g, twinRes, twin)
		if err := g.CheckFeasible(); err != nil {
			t.Fatalf("%s: %s produced infeasible flow: %v", label, s.Name(), err)
		}
		if err := g.CheckOptimal(); err != nil {
			t.Fatalf("%s: %s produced suboptimal flow: %v", label, s.Name(), err)
		}
		if res.Cost != g.TotalCost() {
			t.Fatalf("%s: %s reported cost %d but graph carries %d",
				label, s.Name(), res.Cost, g.TotalCost())
		}
		costs = append(costs, res.Cost)
		names = append(names, s.Name())
	}
	for i, c := range costs[1:] {
		if c != costs[0] {
			t.Fatalf("%s: cost disagreement: %s=%d vs %s=%d",
				label, names[0], costs[0], names[i+1], c)
		}
	}
	return costs[0]
}

// requireSameRun pins the determinism contract of docs/solver.md: two runs
// of one algorithm on identical graphs with identical change histories take
// the same number of iterations and leave byte-identical flow and
// potentials (equal graph fingerprints).
func requireSameRun(t *testing.T, label, name string, res Result, g *flow.Graph, twinRes Result, twin *flow.Graph) {
	t.Helper()
	if res.Iterations != twinRes.Iterations {
		t.Fatalf("%s: %s took %d iterations, its twin run %d",
			label, name, res.Iterations, twinRes.Iterations)
	}
	if fp, twinFP := g.Fingerprint(), twin.Fingerprint(); fp != twinFP {
		t.Fatalf("%s: %s left graph fingerprint %x, its twin run %x",
			label, name, fp, twinFP)
	}
}

// TestDifferentialSolverSuite cross-validates the four MCMF algorithms on a
// corpus of seeded random feasible scheduling-shaped graphs: on every graph
// all four must report the identical optimal cost, and after each of a
// chain of random change batches (task arrivals, cost changes, slot-count
// changes — the §5.2 change categories) the incremental solvers'
// warm-started solutions must match the from-scratch optimum as well.
func TestDifferentialSolverSuite(t *testing.T) {
	const changeRounds = 3
	for seed := int64(0); seed < DifferentialSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := RandomSchedulingGraph(rng,
				20+rng.Intn(40), // tasks
				4+rng.Intn(10),  // machines
				1+rng.Intn(3))   // slots

			want := agreeFromScratch(t, base, "initial graph")

			// Warm-started evolution: both incremental solvers carry their
			// own solution forward through identical change batches. The
			// clones share node and arc IDs and MutateSchedulingGraph is
			// deterministic given the rng, so re-seeding per graph applies
			// the same batch to each. A twin chain — fresh solvers on their
			// own clones, fed the same batches — must repeat every warm
			// start exactly.
			incSolvers := []IncrementalSolver{NewCostScaling(), NewRelaxation()}
			twinSolvers := []IncrementalSolver{NewCostScaling(), NewRelaxation()}
			graphs := make([]*flow.Graph, len(incSolvers))
			twinGraphs := make([]*flow.Graph, len(incSolvers))
			for i, inc := range incSolvers {
				graphs[i] = base.Clone()
				res, err := inc.Solve(graphs[i], nil)
				if err != nil {
					t.Fatalf("%s initial solve: %v", inc.Name(), err)
				}
				if res.Cost != want {
					t.Fatalf("%s initial cost %d, want %d", inc.Name(), res.Cost, want)
				}
				twinGraphs[i] = base.Clone()
				twinRes, err := twinSolvers[i].Solve(twinGraphs[i], nil)
				if err != nil {
					t.Fatalf("%s twin initial solve: %v", inc.Name(), err)
				}
				requireSameRun(t, "initial solve", inc.Name(), res, graphs[i], twinRes, twinGraphs[i])
			}

			for round := 1; round <= changeRounds; round++ {
				label := fmt.Sprintf("round %d", round)
				batchSeed := seed*1009 + int64(round)
				costs := make([]int64, len(incSolvers))
				for i, inc := range incSolvers {
					MutateSchedulingGraph(rand.New(rand.NewSource(batchSeed)), graphs[i])
					MutateSchedulingGraph(rand.New(rand.NewSource(batchSeed)), twinGraphs[i])
					res, err := inc.SolveIncremental(graphs[i], nil)
					if err != nil {
						t.Fatalf("%s: %s incremental solve: %v", label, inc.Name(), err)
					}
					twinRes, err := twinSolvers[i].SolveIncremental(twinGraphs[i], nil)
					if err != nil {
						t.Fatalf("%s: %s twin incremental solve: %v", label, inc.Name(), err)
					}
					requireSameRun(t, label, inc.Name(), res, graphs[i], twinRes, twinGraphs[i])
					if err := graphs[i].CheckFeasible(); err != nil {
						t.Fatalf("%s: %s incremental flow infeasible: %v", label, inc.Name(), err)
					}
					if err := graphs[i].CheckOptimal(); err != nil {
						t.Fatalf("%s: %s incremental flow suboptimal: %v", label, inc.Name(), err)
					}
					costs[i] = res.Cost
				}
				// The two warm-started solutions must agree with each other
				// and with all four algorithms run from scratch on the
				// mutated graph.
				ref := agreeFromScratch(t, graphs[0], label+" (from scratch)")
				for i, inc := range incSolvers {
					if costs[i] != ref {
						t.Fatalf("%s: %s warm-started cost %d != from-scratch optimum %d",
							label, inc.Name(), costs[i], ref)
					}
				}
			}
		})
	}
}

// TestDifferentialGeneralGraphs extends the cross-validation to non-
// scheduling shapes: multi-unit supplies, wider capacities, negative costs.
func TestDifferentialGeneralGraphs(t *testing.T) {
	for seed := int64(0); seed < DifferentialSeeds/2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed + 7777))
			base := RandomGeneralGraph(rng, 8+rng.Intn(16))
			agreeFromScratch(t, base, "general graph")
		})
	}
}

// concurrently runs each fn in its own goroutine and waits for all of them.
func concurrently(fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// agreeConcurrently solves private clones of base with all four algorithms
// at once, one goroutine each, as the §6.1 solver pool races two of them.
// Every concurrent run must reach the agreed sequential optimum and repeat a
// lone sequential run of the same algorithm exactly: solver instances share
// no mutable state, so running beside another solver changes nothing.
func agreeConcurrently(t *testing.T, base *flow.Graph, label string) {
	t.Helper()
	want := agreeFromScratch(t, base, label+" (sequential)")
	solvers := allSolvers()
	graphs := make([]*flow.Graph, len(solvers))
	results := make([]Result, len(solvers))
	errs := make([]error, len(solvers))
	runs := make([]func(), len(solvers))
	for i, s := range solvers {
		i, s := i, s
		graphs[i] = base.Clone()
		runs[i] = func() { results[i], errs[i] = s.Solve(graphs[i], nil) }
	}
	concurrently(runs...)
	for i, ref := range allSolvers() {
		name := solvers[i].Name()
		if errs[i] != nil {
			t.Fatalf("%s: concurrent %s: %v", label, name, errs[i])
		}
		if err := graphs[i].CheckFeasible(); err != nil {
			t.Fatalf("%s: concurrent %s: infeasible flow: %v", label, name, err)
		}
		if err := graphs[i].CheckOptimal(); err != nil {
			t.Fatalf("%s: concurrent %s: suboptimal flow: %v", label, name, err)
		}
		if results[i].Cost != want {
			t.Fatalf("%s: concurrent %s: cost %d, sequential optimum %d",
				label, name, results[i].Cost, want)
		}
		refGraph := base.Clone()
		refRes, err := ref.Solve(refGraph, nil)
		if err != nil {
			t.Fatalf("%s: sequential %s: %v", label, name, err)
		}
		requireSameRun(t, label, name, results[i], graphs[i], refRes, refGraph)
	}
}

// TestParallelSolversAgreeOnOptimum runs all four algorithms concurrently
// over the differential corpus: each must reach the sequential optimum with
// a feasible, negative-cycle-free flow and leave the same graph as a lone
// run. A disagreement means two solver instances share mutable state.
func TestParallelSolversAgreeOnOptimum(t *testing.T) {
	for seed := int64(0); seed < DifferentialSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := RandomSchedulingGraph(rng,
				20+rng.Intn(40),
				4+rng.Intn(10),
				1+rng.Intn(3))
			agreeConcurrently(t, base, "scheduling graph")
		})
	}
}

// TestParallelGeneralGraphsAgree extends the concurrent agreement check to
// non-scheduling shapes: multi-unit supplies, wider capacities, negative
// costs.
func TestParallelGeneralGraphsAgree(t *testing.T) {
	for seed := int64(0); seed < DifferentialSeeds/2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed + 7777))
			base := RandomGeneralGraph(rng, 8+rng.Intn(16))
			agreeConcurrently(t, base, "general graph")
		})
	}
}

// TestParallelIncrementalCostScaling carries incremental cost scaling and
// relaxation through warm-started change batches side by side, each on its
// own graph and in its own goroutine, as the §6.1 pool races them. Each
// warm start must match the from-scratch optimum, and the cost scaling
// chain must repeat a sequential twin chain exactly.
func TestParallelIncrementalCostScaling(t *testing.T) {
	const changeRounds = 3
	for seed := int64(0); seed < DifferentialSeeds/2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := RandomSchedulingGraph(rng,
				20+rng.Intn(40),
				4+rng.Intn(10),
				1+rng.Intn(3))

			cs, relax, twin := NewCostScaling(), NewRelaxation(), NewCostScaling()
			csGraph, relaxGraph, twinGraph := base.Clone(), base.Clone(), base.Clone()
			var csRes, relaxRes Result
			var csErr, relaxErr error
			concurrently(
				func() { csRes, csErr = cs.Solve(csGraph, nil) },
				func() { relaxRes, relaxErr = relax.Solve(relaxGraph, nil) },
			)
			for round := 0; round <= changeRounds; round++ {
				label := fmt.Sprintf("round %d", round)
				var twinRes Result
				var twinErr error
				if round == 0 {
					twinRes, twinErr = twin.Solve(twinGraph, nil)
				} else {
					batchSeed := seed*1009 + int64(round)
					MutateSchedulingGraph(rand.New(rand.NewSource(batchSeed)), csGraph)
					MutateSchedulingGraph(rand.New(rand.NewSource(batchSeed)), relaxGraph)
					MutateSchedulingGraph(rand.New(rand.NewSource(batchSeed)), twinGraph)
					concurrently(
						func() { csRes, csErr = cs.SolveIncremental(csGraph, nil) },
						func() { relaxRes, relaxErr = relax.SolveIncremental(relaxGraph, nil) },
					)
					twinRes, twinErr = twin.SolveIncremental(twinGraph, nil)
				}
				if csErr != nil {
					t.Fatalf("%s: concurrent %s: %v", label, cs.Name(), csErr)
				}
				if relaxErr != nil {
					t.Fatalf("%s: concurrent %s: %v", label, relax.Name(), relaxErr)
				}
				if twinErr != nil {
					t.Fatalf("%s: sequential twin %s: %v", label, twin.Name(), twinErr)
				}
				requireSameRun(t, label, cs.Name(), csRes, csGraph, twinRes, twinGraph)
				for _, g := range []*flow.Graph{csGraph, relaxGraph} {
					if err := g.CheckFeasible(); err != nil {
						t.Fatalf("%s: infeasible flow: %v", label, err)
					}
					if err := g.CheckOptimal(); err != nil {
						t.Fatalf("%s: suboptimal flow: %v", label, err)
					}
				}
				ref, err := NewCostScaling().Solve(csGraph.Clone(), nil)
				if err != nil {
					t.Fatalf("%s: from-scratch reference: %v", label, err)
				}
				if csRes.Cost != ref.Cost || relaxRes.Cost != ref.Cost {
					t.Fatalf("%s: warm-start costs %s=%d %s=%d, from-scratch optimum %d",
						label, cs.Name(), csRes.Cost, relax.Name(), relaxRes.Cost, ref.Cost)
				}
			}
		})
	}
}
