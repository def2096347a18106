package mcmf_test

import (
	"math/rand"
	"testing"

	"firmament/internal/flow"
	. "firmament/internal/mcmf"
)

// TestUnscalePotentialsFloors pins the rounding of the conversion the
// solver pool applies before a warm relaxation: potentials are divided by
// the scale rounding toward negative infinity, so negative non-multiples
// go down, not toward zero.
func TestUnscalePotentialsFloors(t *testing.T) {
	pis := []int64{-9, -8, -7, -1, 0, 1, 7, 8, 9}
	want := []int64{-3, -2, -2, -1, 0, 0, 1, 2, 2}
	g := flow.NewGraph(len(pis), 0)
	for _, pi := range pis {
		g.SetPotential(g.AddNode(0, flow.KindOther), pi)
	}
	UnscalePotentials(g, 4)
	for i, w := range want {
		if got := g.Potential(flow.NodeID(i)); got != w {
			t.Errorf("potential %d unscaled by 4 = %d, want %d", pis[i], got, w)
		}
	}
}

// TestUnscalePotentialsKeepsReducedCostsNonNegative checks the floor
// argument on the differential suite's graphs: after PriceRefine at scale
// s leaves an optimal flow with every residual arc's scaled reduced cost
// non-negative, UnscalePotentials leaves every residual arc's reduced cost
// non-negative in original costs. Residual reverse arcs carry negative
// costs, and the potentials are also shifted by a negative non-multiple of
// s, which PriceRefine's contract allows (reduced costs are invariant
// under a uniform shift) and which puts potentials of both signs into the
// division — where truncating toward zero would break the contract. The
// scales are the power of two cost scaling would pick and an odd one.
func TestUnscalePotentialsKeepsReducedCostsNonNegative(t *testing.T) {
	for seed := int64(0); seed < DifferentialSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs := []*flow.Graph{
			RandomSchedulingGraph(rng, 20+rng.Intn(40), 4+rng.Intn(10), 1+rng.Intn(3)),
			RandomGeneralGraph(rng, 10+rng.Intn(30)),
		}
		for gi, base := range graphs {
			if _, err := NewRelaxation().Solve(base, nil); err != nil {
				t.Fatalf("seed %d graph %d: %v", seed, gi, err)
			}
			for _, scale := range []int64{NewCostScaling().ScaleFor(base), 7} {
				g := base.Clone()
				if !NewScratch().PriceRefine(g, scale, 0, nil) {
					t.Fatalf("seed %d graph %d scale %d: price refine found no potentials for an optimal flow", seed, gi, scale)
				}
				shift := -(scale*int64(1+rng.Intn(8)) + 1 + rng.Int63n(scale-1))
				g.Nodes(func(n flow.NodeID) { g.SetPotential(n, g.Potential(n)+shift) })
				UnscalePotentials(g, scale)
				if err := g.CheckReducedCostOptimal(0); err != nil {
					t.Fatalf("seed %d graph %d scale %d shift %d: after unscaling: %v", seed, gi, scale, shift, err)
				}
			}
		}
	}
}
