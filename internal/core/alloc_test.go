package core

import (
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/policy"
)

// TestSteadyStateUpdateAllocations pins the graph update at zero
// allocations a round once nothing happens: on a 64-machine LoadSpread
// world, partly occupied, with waiting tasks and no events, UpdateRound
// re-prices the waiting tasks and merge-walks the aggregator's ~1.6k
// machine arcs entirely in reused buffers. Run it without -race, which
// distorts AllocsPerRun.
func TestSteadyStateUpdateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32})
	gm := NewScheduler(cl, policy.NewLoadSpread(cl), DefaultConfig()).GraphManager()
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 600))
	for i, id := range job.Tasks[:400] {
		if err := cl.Place(id, cluster.MachineID(i%cl.NumMachines()), 0); err != nil {
			t.Fatal(err)
		}
	}
	gm.ApplyClusterEvents()
	now := time.Duration(0)
	round := func() {
		now += 300 * time.Millisecond // wait costs step every 2 s
		gm.UpdateRound(now)
		gm.Changes().Reset()
	}
	for i := 0; i < 3; i++ { // warm up: grow every buffer to the world's size
		round()
	}
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Fatalf("steady-state UpdateRound allocates %.1f objects/round, want 0", got)
	}
}
