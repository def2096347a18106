package experiments

import (
	"io"
	"strings"
	"testing"
	"time"
)

// tinyOptions shrink every experiment far below its defaults so the whole
// registry can run in the test suite.
func tinyOptions() Options {
	return Options{
		Scale:         0.1,
		Seed:          7,
		SolverTimeout: 5 * time.Second,
		Rounds:        2,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig7-large", "fig11-large", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19a", "fig19b",
		"abl-increlax", "tab1", "tab2", "tab3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("fig14"); !ok {
		t.Fatal("ByID failed for known experiment")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("ByID accepted unknown experiment")
	}
}

// TestTablesRun executes the cheap table experiments fully.
func TestTablesRun(t *testing.T) {
	for _, id := range []string{"tab1", "tab3"} {
		e, _ := ByID(id)
		var sb strings.Builder
		if err := e.Run(&sb, tinyOptions()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestSolverExperimentsSmoke runs the solver-level experiments at minimal
// scale; they exercise warmed-state construction, timed solves and the
// incremental machinery end to end.
func TestSolverExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	for _, id := range []string{"fig9", "fig10", "fig11", "fig12", "fig13"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			var sb strings.Builder
			if err := e.Run(&sb, tinyOptions()); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", id, err, sb.String())
			}
			if !strings.Contains(sb.String(), "===") {
				t.Fatalf("%s produced no header", id)
			}
		})
	}
}

// TestHelpersProduceUsableState covers the benchmark entry points.
func TestHelpersProduceUsableState(t *testing.T) {
	g := OversubscribedGraph(25, 0.1, 3)
	if g.NumNodes() == 0 || g.NumArcs() == 0 {
		t.Fatal("oversubscribed graph empty")
	}
	cg, err := ContendedGraph(25, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cg.NumNodes() == 0 {
		t.Fatal("contended graph empty")
	}
	if chg := ChangedGraph(25, 3); chg.NumNodes() == 0 {
		t.Fatal("changed graph empty")
	}
	if err := io.EOF; err == nil {
		t.Fatal("unreachable")
	}
}
