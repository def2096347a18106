package mcmf

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"firmament/internal/flow"
)

// TestStopPromptInEveryPhase stops each solver in the middle of each of
// its phases and bounds the work it does after the stop. A counting hook
// sees every cancellation check (Options.onPoll): an unstopped solve
// first shows that every phase runs through several checks on this graph;
// then, for each phase, a solve is stopped at that phase's second check.
// It must return ErrStopped without reaching another check, so the extra
// work after the flag went up is under stopCheckInterval units — the
// race's loser no longer finishes a tree, a saturation pass or a price
// update before it notices. Relaxation is stopped both from scratch and
// warm: a warm start from a priced optimum of a slightly changed graph,
// as the solver pool's race runs it on quiet rounds, spends most of its
// work in the opening pass.
func TestStopPromptInEveryPhase(t *testing.T) {
	base := randomSchedulingGraph(rand.New(rand.NewSource(5)), 6000, 300, 16)
	warmBase := base.Clone()
	cs := NewCostScaling()
	if _, err := cs.Solve(warmBase, nil); err != nil {
		t.Fatal(err)
	}
	NewScratch().PriceRefine(warmBase, cs.Scale(), 0, nil)
	UnscalePotentials(warmBase, cs.Scale())
	mutateSchedulingGraph(rand.New(rand.NewSource(6)), warmBase)

	relax := NewRelaxation()
	solvers := []struct {
		name   string
		base   *flow.Graph
		solve  func(*flow.Graph, *Options) (Result, error)
		phases []phase
	}{
		{"relaxation", base, relax.Solve, []phase{phaseRelaxOpen, phaseRelaxQueue, phaseRelaxTree}},
		{"warm relaxation", warmBase, relax.SolveIncremental, []phase{phaseRelaxOpen, phaseRelaxQueue, phaseRelaxTree}},
		{"cost-scaling", base, NewCostScaling().Solve, []phase{phaseSaturate, phaseDischarge, phasePriceUpdate}},
	}
	names := [numPhases]string{"opening pass", "between iterations", "tree growth", "saturation", "discharge", "price update"}
	for _, sv := range solvers {
		var checks [numPhases]int
		g := sv.base.Clone()
		if _, err := sv.solve(g, &Options{ArcPrioritization: true, onPoll: func(ph phase) { checks[ph]++ }}); err != nil {
			t.Fatalf("%s: unstopped solve: %v", sv.name, err)
		}
		for _, ph := range sv.phases {
			if checks[ph] < 3 {
				t.Fatalf("%s: %s reached %d cancellation checks unstopped, want >= 3 (too little work to stop it mid-phase)",
					sv.name, names[ph], checks[ph])
			}
			var stop atomic.Bool
			seen, after := 0, 0
			hook := func(p phase) {
				if stop.Load() {
					after++
					return
				}
				if p == ph {
					if seen++; seen == 2 {
						stop.Store(true)
					}
				}
			}
			sv.base.CloneInto(g)
			_, err := sv.solve(g, &Options{ArcPrioritization: true, Stop: &stop, onPoll: hook})
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("%s stopped in %s: err = %v, want ErrStopped", sv.name, names[ph], err)
			}
			if !stop.Load() {
				t.Fatalf("%s: the stop in %s never fired", sv.name, names[ph])
			}
			if after != 0 {
				t.Fatalf("%s stopped in %s: %d more checks passed before it returned, want 0", sv.name, names[ph], after)
			}
		}
		t.Logf("%s: checks per phase unstopped %v", sv.name, checks)
	}
}
