// Big-job arrival: the relaxation edge case (paper §4.3, Figure 9).
//
// A single large job arriving on a load-spreading cluster makes
// under-populated machines contended destinations, which slows the
// relaxation algorithm linearly in the job's size while cost scaling stays
// flat. This example submits ever-larger jobs and reports the algorithm
// runtime of relaxation alone, cost scaling alone, and Firmament's
// speculative dual-algorithm pool — which tracks whichever is faster.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"firmament"
)

func main() {
	fmt.Println("algorithm runtime vs. arriving job size (load-spreading policy)")
	fmt.Printf("%10s %16s %16s %16s %12s\n",
		"tasks", "relaxation", "cost scaling", "firmament", "winner")

	for _, tasks := range []int{500, 1000, 2000, 4000} {
		var row [3]time.Duration
		var winner string
		for i, mode := range []firmament.SolverMode{
			firmament.ModeRelaxationOnly,
			firmament.ModeQuincy, // from-scratch cost scaling
			firmament.ModeFirmament,
		} {
			rt, win, err := scheduleBigJob(tasks, mode)
			if err != nil {
				log.Fatalf("%d tasks, mode %v: %v", tasks, mode, err)
			}
			row[i] = rt
			if mode == firmament.ModeFirmament {
				winner = win
			}
		}
		fmt.Printf("%10d %16v %16v %16v %12s\n", tasks, row[0], row[1], row[2], winner)
	}
}

// scheduleBigJob pre-loads a 1,000-machine cluster to ~60% with skewed
// occupancy, submits one job of n tasks, and measures a single scheduling
// round.
func scheduleBigJob(n int, mode firmament.SolverMode) (time.Duration, string, error) {
	cl := firmament.NewCluster(firmament.Topology{
		Racks: 25, MachinesPerRack: 40, SlotsPerMachine: 8,
	})
	rng := rand.New(rand.NewSource(1))
	// Skewed pre-load: some machines nearly full, some nearly empty, so
	// the cheapest destinations are scarce and contended.
	var preload []firmament.TaskSpec
	total := 0
	cl.Machines(func(m *firmament.Machine) {
		k := rng.Intn(m.Slots)
		total += k
	})
	preload = make([]firmament.TaskSpec, total)
	job := cl.SubmitJob(firmament.Batch, 0, 0, preload)
	// Collect per-machine counts first: Machines holds the cluster's read
	// lock, so the callback must not call Place.
	type fill struct {
		id firmament.MachineID
		k  int
	}
	var fills []fill
	cl.Machines(func(m *firmament.Machine) {
		fills = append(fills, fill{m.ID, rng.Intn(m.Slots)}) // same sequence shape
	})
	i := 0
	for _, f := range fills {
		for s := 0; s < f.k && i < len(job.Tasks); s++ {
			if err := cl.Place(job.Tasks[i], f.id, 0); err == nil {
				i++
			}
		}
	}
	cl.DrainEvents(nil) // pre-load is background state, not schedulable work

	cfg := firmament.DefaultConfig()
	cfg.Mode = mode
	sched := firmament.NewScheduler(cl, firmament.NewLoadSpreadPolicy(cl), cfg)

	cl.SubmitJob(firmament.Batch, 0, time.Second, make([]firmament.TaskSpec, n))
	round, err := sched.Schedule(time.Second)
	if err != nil {
		return 0, "", err
	}
	return round.Stats.Pool.AlgorithmTime, round.Stats.Pool.Winner, nil
}
