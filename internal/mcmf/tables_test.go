package mcmf

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"firmament/internal/flow"
)

// TestTable2Invariants verifies the per-iteration preconditions of paper
// Table 2 using the snapshot hook, which solvers invoke between primal
// iterations:
//
//   - cycle canceling and cost scaling maintain feasibility at every step;
//   - relaxation and successive shortest path maintain reduced cost
//     optimality at every step.
func TestTable2Invariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomSchedulingGraph(rng, 150, 12, 3)

	t.Run("cycle-canceling-feasibility", func(t *testing.T) {
		g := base.Clone()
		checks := 0
		opts := &Options{SnapshotHook: func(time.Duration) {
			checks++
			if err := g.CheckFeasible(); err != nil {
				t.Fatalf("feasibility broken mid-run: %v", err)
			}
		}}
		if _, err := NewCycleCanceling().Solve(g, opts); err != nil {
			t.Fatal(err)
		}
		if checks == 0 {
			t.Fatal("snapshot hook never fired")
		}
	})

	t.Run("cost-scaling-feasibility", func(t *testing.T) {
		g := base.Clone()
		checks := 0
		opts := &Options{SnapshotHook: func(time.Duration) {
			checks++
			if err := g.CheckFeasible(); err != nil {
				t.Fatalf("feasibility broken between refines: %v", err)
			}
		}}
		if _, err := NewCostScaling().Solve(g, opts); err != nil {
			t.Fatal(err)
		}
		if checks == 0 {
			t.Fatal("snapshot hook never fired")
		}
	})

	t.Run("relaxation-reduced-cost-optimality", func(t *testing.T) {
		g := base.Clone()
		checks := 0
		opts := &Options{SnapshotHook: func(time.Duration) {
			checks++
			if err := g.CheckReducedCostOptimal(0); err != nil {
				t.Fatalf("reduced cost optimality broken mid-run: %v", err)
			}
		}}
		if _, err := NewRelaxation().Solve(g, opts); err != nil {
			t.Fatal(err)
		}
		if checks == 0 {
			t.Fatal("snapshot hook never fired")
		}
	})

	t.Run("ssp-reduced-cost-optimality", func(t *testing.T) {
		g := base.Clone()
		checks := 0
		opts := &Options{SnapshotHook: func(time.Duration) {
			checks++
			if err := g.CheckReducedCostOptimal(0); err != nil {
				t.Fatalf("reduced cost optimality broken mid-run: %v", err)
			}
		}}
		if _, err := NewSuccessiveShortestPath().Solve(g, opts); err != nil {
			t.Fatal(err)
		}
		if checks == 0 {
			t.Fatal("snapshot hook never fired")
		}
	})
}

// TestQuickTable3Predictions property-tests the Table 3 classification: for
// random optimal solutions and random arc changes, the prediction must
// match the observed state of the complementary slackness certificate.
func TestQuickTable3Predictions(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSchedulingGraph(rng, 10+rng.Intn(30), 3+rng.Intn(6), 1+rng.Intn(3))
		if _, err := NewCostScaling().Solve(g, nil); err != nil {
			t.Logf("solve: %v", err)
			return false
		}
		// Normalize potentials so the certificate is exact (0-optimal in
		// unscaled costs) — cost scaling leaves scaled-domain potentials.
		if !NewScratch().PriceRefine(g, 1, 0, nil) {
			t.Log("price refine failed on optimal flow")
			return false
		}
		if f, o := CertificateIntact(g); !f || !o {
			t.Logf("certificate not intact after solve: feasible=%v optimal=%v", f, o)
			return false
		}
		// Pick a random live forward arc and apply a random change.
		var arcs []flow.ArcID
		g.ForwardArcs(func(a flow.ArcID) { arcs = append(arcs, a) })
		a := arcs[rng.Intn(len(arcs))]
		var predicted ChangeEffect
		if rng.Intn(2) == 0 {
			newCap := int64(rng.Intn(5))
			predicted = PredictCapacityChange(g, a, newCap)
			g.SetArcCapacity(a, newCap)
		} else {
			newCost := int64(rng.Intn(160) - 20)
			predicted = PredictCostChange(g, a, newCost)
			g.SetArcCost(a, newCost)
		}
		feasible, optimal := CertificateIntact(g)
		if predicted.BreaksFeasibility == feasible {
			t.Logf("feasibility prediction wrong: predicted breaks=%v, observed feasible=%v",
				predicted.BreaksFeasibility, feasible)
			return false
		}
		if predicted.BreaksOptimality == optimal {
			t.Logf("optimality prediction wrong: predicted breaks=%v, observed optimal=%v",
				predicted.BreaksOptimality, optimal)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
