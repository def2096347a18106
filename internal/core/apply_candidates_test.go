package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/mcmf"
	"firmament/internal/policy"
)

// This file pins the two passes the round stopped making over the whole
// graph: the apply walks a candidate list instead of every task, and the
// §6.1 race runs incremental cost scaling in place on the main graph.

// refIDs lists the task IDs of refs, in order.
func refIDs(refs []taskRef) []cluster.TaskID {
	ids := make([]cluster.TaskID, len(refs))
	for i, r := range refs {
		ids[i] = r.id
	}
	return ids
}

// TestApplyWidensOnEviction pins the widening rule. A task that the cluster
// moves between Schedule and the apply is no longer where the update saw
// it, and only the queued eviction says so: the apply must walk every task
// and make the decisions, and count the ApplyStats, of the map-keyed
// oracle, which always does.
func TestApplyWidensOnEviction(t *testing.T) {
	for _, move := range []string{"migrate", "preempt", "remove machine"} {
		t.Run(move, func(t *testing.T) {
			var twins [2]*Scheduler // twins[1] applies through the oracle
			var cls [2]*cluster.Cluster
			for i := range twins {
				cls[i] = smallCluster()
				twins[i] = newTestScheduler(cls[i], ModeIncrementalCostScaling)
				cls[i].SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 10))
				for round := 1; round <= 2; round++ {
					if _, _, err := twins[i].RunOnce(time.Duration(round) * time.Second); err != nil {
						t.Fatal(err)
					}
				}
			}
			now := 3 * time.Second
			var rounds [2]*Round
			for i, s := range twins {
				r, err := s.Schedule(now)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					r = &Round{Mappings: s.gm.ExtractPlacements()}
				}
				rounds[i] = r
			}

			ids := sortedKeys(nil, twins[0].gm.taskNode)
			var id cluster.TaskID = -1
			for _, tid := range ids {
				if cls[0].Task(tid).State == cluster.TaskRunning {
					id = tid
					break
				}
			}
			if id < 0 {
				t.Fatal("no running task to move")
			}
			from := cls[0].Task(id).Machine
			to := cluster.InvalidMachine
			cls[0].Machines(func(m *cluster.Machine) {
				if to == cluster.InvalidMachine && m.ID != from && m.Running() < m.Slots {
					to = m.ID
				}
			})
			for _, cl := range cls {
				var err error
				switch move {
				case "migrate":
					if err = cl.Preempt(id, now); err == nil {
						err = cl.Place(id, to, now)
					}
				case "preempt":
					err = cl.Preempt(id, now)
				default:
					err = cl.RemoveMachine(from, now)
				}
				if err != nil {
					t.Fatalf("%s task %d: %v", move, id, err)
				}
			}
			if got := len(twins[0].gm.applyCandidates(twins[0].gm.placements(rounds[0]))); got != len(ids) {
				t.Fatalf("candidates with an eviction queued: %d tasks, want all %d", got, len(ids))
			}

			var decs [2][]Decision
			var stats [2]ApplyStats
			stats[0] = twins[0].ApplyRoundRecorded(rounds[0], now, func(d Decision) { decs[0] = append(decs[0], d) })
			stats[1] = mapApplyRoundRecorded(twins[1], rounds[1], now, func(d Decision) { decs[1] = append(decs[1], d) })
			if stats[0] != stats[1] || !slices.Equal(decs[0], decs[1]) {
				t.Fatalf("apply %+v %v, oracle %+v %v", stats[0], decs[0], stats[1], decs[1])
			}
			if stats[0] == (ApplyStats{}) {
				t.Fatalf("the %s left the round nothing to do", move)
			}
		})
	}
}

// TestApplyCandidates checks the size of the apply's walk on a world of
// 4,000 running tasks: with five tasks pending, the candidate list holds
// exactly those five; a Round that moves two running tasks adds exactly
// those two; and a queued eviction widens it to every task.
func TestApplyCandidates(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 64})
	s := NewScheduler(cl, policy.NewLoadSpread(cl), DefaultConfig())
	running := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 4000)).Tasks
	for i, id := range running {
		if err := cl.Place(id, cluster.MachineID(i%cl.NumMachines()), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.RunOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	pending := cl.SubmitJob(cluster.Batch, 0, 2*time.Second, make([]cluster.TaskSpec, 5)).Tasks
	r, err := s.Schedule(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := refIDs(s.gm.applyCandidates(s.gm.placements(r))); !slices.Equal(got, pending) {
		t.Fatalf("candidates %v, want the pending tasks %v", got, pending)
	}

	m := s.gm.ExtractPlacements()
	m[running[7]] = (m[running[7]] + 1) % cluster.MachineID(cl.NumMachines())
	delete(m, running[3])
	placed := s.gm.placements(&Round{Mappings: m})
	want := append([]cluster.TaskID{running[3], running[7]}, pending...)
	if got := refIDs(s.gm.applyCandidates(placed)); !slices.Equal(got, want) {
		t.Fatalf("candidates %v, want the moved and pending tasks %v", got, want)
	}

	if err := cl.Preempt(running[0], 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(s.gm.applyCandidates(placed)); got != len(running)+len(pending) {
		t.Fatalf("candidates with an eviction queued: %d tasks, want all %d", got, len(running)+len(pending))
	}
}

// TestRaceEquivalence checks the roles of the §6.1 race: after every
// ModeFirmament solve, the main graph must be bit-identical to a twin of
// the pre-solve graph solved by the reported winner alone — incremental
// cost scaling warm-started in place, or relaxation started as the start
// rule (warmRelaxation) picks: warm from the unscaled potentials, or from
// scratch — and then price-refined, over the policies and seeds of
// TestUpdateEquivalence. The rule must pick each start on some step, so
// that the oracle covers both.
func TestRaceEquivalence(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	wins := make(map[string]int)
	starts := make(map[bool]int) // relaxation starts the rule picked, keyed by warm
	for _, pol := range equivPolicies() {
		for seed := 0; seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pol.name, seed), func(t *testing.T) {
				runRaceEquiv(t, pol, int64(seed), wins, starts)
			})
		}
	}
	t.Logf("race winners: %v; relaxation starts: %d warm, %d from scratch", wins, starts[true], starts[false])
	if starts[true] == 0 || starts[false] == 0 {
		t.Fatalf("relaxation started warm on %d steps and from scratch on %d: want both starts covered", starts[true], starts[false])
	}
}

func runRaceEquiv(t *testing.T, pol equivPolicy, seed int64, wins map[string]int, starts map[bool]int) {
	rng := rand.New(rand.NewSource(seed))
	const gbps = 1000 * 1000 * 1000 / 8
	cl := cluster.New(cluster.Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 3, NICBps: 10 * gbps})
	s := NewScheduler(cl, pol.build(cl)(), DefaultConfig())
	var tasks []cluster.TaskID
	running := func() []cluster.TaskID {
		var out []cluster.TaskID
		for _, id := range tasks {
			if cl.Task(id).State == cluster.TaskRunning {
				out = append(out, id)
			}
		}
		return out
	}
	now := time.Duration(0)
	for step := 0; step < 60; step++ {
		now += time.Duration(rng.Intn(3000)) * time.Millisecond
		switch op := rng.Intn(10); {
		case op < 4: // submit
			specs := make([]cluster.TaskSpec, 1+rng.Intn(7))
			for i := range specs {
				specs[i] = pol.spec(rng)
			}
			tasks = append(tasks, cl.SubmitJob(cluster.Batch, 0, now, specs).Tasks...)
		case op < 5: // complete
			if r := running(); len(r) > 0 {
				if err := cl.Complete(r[rng.Intn(len(r))], now); err != nil {
					t.Fatal(err)
				}
			}
		case op < 6: // preempt
			if r := running(); len(r) > 0 {
				if err := cl.Preempt(r[rng.Intn(len(r))], now); err != nil {
					t.Fatal(err)
				}
			}
		default: // solve, check against the winner alone, apply
			s.UpdateOnly(now)
			g := s.gm.Graph()
			twin, scale := g.Clone(), s.pool.SolverScale()
			warm := s.pool.warmRelaxation(g, s.gm.Changes())
			starts[warm]++
			res, err := s.pool.Solve(g, s.gm.Changes())
			s.gm.Changes().Reset()
			if err != nil {
				t.Fatalf("step %d: solve: %v", step, err)
			}
			alone := NewSolverPool(ModeIncrementalCostScaling)
			alone.Options = s.pool.Options
			alone.RestoreSolverScale(scale)
			switch {
			case res.Winner != s.pool.relax.Name():
				_, err = alone.Solve(twin, nil)
			case warm:
				mcmf.UnscalePotentials(twin, scale)
				_, err = alone.relax.SolveIncremental(twin, &alone.Options)
				alone.refine(twin)
			default:
				alone.Mode = ModeRelaxationOnly
				_, err = alone.Solve(twin, nil)
				alone.refine(twin) // the single-solver mode skips it
			}
			if err != nil {
				t.Fatalf("step %d: %s alone (warm %v): %v", step, res.Winner, warm, err)
			}
			if a, b := g.Fingerprint(), twin.Fingerprint(); a != b {
				t.Fatalf("step %d: graph after the race (won by %s, relaxation warm %v) %x, winner alone %x", step, res.Winner, warm, a, b)
			}
			if res.Winner == s.pool.relax.Name() && warm {
				wins[res.Winner+" (warm)"]++
			} else {
				wins[res.Winner]++
			}
			r := s.gm.ExtractRound()
			s.ApplyRound(&r, now)
		}
	}
}
