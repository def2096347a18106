package service

import (
	"math/rand"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
)

// manualTemplateService is manualService with the template fast path on.
func manualTemplateService(topo cluster.Topology, clock *time.Duration) *Service {
	cl := cluster.New(topo)
	s := newService(cl, policy.NewLoadSpread(cl), detCfg(), Config{Templates: true})
	s.testHookNow = func() time.Duration { return *clock }
	return s
}

// TestTemplateHitPathSmoke drives the minimal recurring-workload loop:
// submit → solve (miss, template recorded) → complete → resubmit the same
// shape → the second submission must be placed from the cache without a
// solve.
func TestTemplateHitPathSmoke(t *testing.T) {
	var clock time.Duration
	s := manualTemplateService(cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 2}, &clock)
	events, cancel := s.Watch()
	defer cancel()

	specs := []cluster.TaskSpec{{Duration: time.Second}, {Duration: 2 * time.Second}}
	j1, err := s.Submit(cluster.Batch, 0, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	st := s.Stats()
	if st.TemplateHits != 0 || st.TemplateMisses != 1 {
		t.Fatalf("after first round: hits %d misses %d, want 0/1", st.TemplateHits, st.TemplateMisses)
	}
	if s.TemplateCacheLen() != 1 {
		t.Fatalf("cache len %d, want 1 (miss must record)", s.TemplateCacheLen())
	}
	first := drainPlacements(events)
	if len(first) != len(specs) {
		t.Fatalf("first round placed %d tasks, want %d", len(first), len(specs))
	}

	// Return the cluster to the recorded occupancy profile and resubmit the
	// identical shape.
	for _, tid := range j1.Tasks {
		if err := s.Complete(tid); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	j2, err := s.Submit(cluster.Batch, 0, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = 2 * time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	st = s.Stats()
	if st.TemplateHits != 1 {
		t.Fatalf("second round hits = %d, want 1", st.TemplateHits)
	}
	second := drainPlacements(events)
	placed := 0
	for _, p := range second {
		if p.Kind == core.DecisionPlaced && p.Job == j2.ID {
			placed++
			if p.Latency <= 0 {
				t.Fatalf("hit placement of task %d has latency %v", p.Task, p.Latency)
			}
		}
	}
	if placed != len(specs) {
		t.Fatalf("second round placed %d of job 2's tasks, want %d", placed, len(specs))
	}
	for _, tid := range j2.Tasks {
		tk := s.cl.Task(tid)
		if tk == nil || tk.State != cluster.TaskRunning {
			t.Fatalf("task %d not running after template hit", tid)
		}
	}

	// A shape the cache has never seen must miss even at the same profile.
	for _, tid := range j2.Tasks {
		if err := s.Complete(tid); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if _, err := s.Submit(cluster.Batch, 0, []cluster.TaskSpec{{Duration: 9 * time.Second}}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = 3 * time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if st = s.Stats(); st.TemplateMisses != 2 {
		t.Fatalf("distinguishable shape must miss: misses = %d, want 2", st.TemplateMisses)
	}
}

// scratchCost computes the total placement cost a from-scratch solve of an
// equivalent graph assigns to a job's tasks: a twin cluster is rebuilt at
// the recorded occupancy profile, the job is submitted identically, and a
// fresh scheduler (no warm state, no cache) solves it. Returns the summed
// occupancy-level cost of the job's mappings.
func scratchCost(t *testing.T, topo cluster.Topology, occ map[cluster.MachineID]int,
	class cluster.JobClass, specs []cluster.TaskSpec, submitAt, solveAt time.Duration) int64 {
	t.Helper()
	cl := cluster.New(topo)
	model := policy.NewLoadSpread(cl)

	total := 0
	for _, n := range occ {
		total += n
	}
	if total > 0 {
		filler := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, total))
		var ids []cluster.MachineID
		cl.Machines(func(m *cluster.Machine) { ids = append(ids, m.ID) })
		i := 0
		for _, id := range ids {
			for k := 0; k < occ[id]; k++ {
				if err := cl.Place(filler.Tasks[i], id, 0); err != nil {
					t.Fatalf("twin filler place: %v", err)
				}
				i++
			}
		}
	}
	job := cl.SubmitJob(class, 0, submitAt, specs)

	sched := core.NewScheduler(cl, model, detCfg())
	r, err := sched.Schedule(solveAt)
	if err != nil {
		t.Fatalf("twin solve: %v", err)
	}
	perMachine := make(map[cluster.MachineID]int)
	for _, tid := range job.Tasks {
		m, ok := r.Machine(tid)
		if !ok {
			t.Fatalf("twin solve left task %d unmapped", tid)
		}
		perMachine[m]++
	}
	var cost int64
	for m, n := range perMachine {
		base := occ[m]
		for i := 0; i < n; i++ {
			cost += int64(base+i) * int64(model.CostPerTask)
		}
	}
	return cost
}

// TestTemplateDifferentialSuite is the template-vs-solver differential
// suite: 50 seeds × incremental rounds of recurring submissions. Every
// round's placements — whether they came from the template cache or from
// the solver — must realize exactly the total cost a from-scratch solve of
// the same graph achieves, and every seed must serve at least one
// submission from the cache. Run under -race, and in CI under both
// GOMAXPROCS=1 and the default.
func TestTemplateDifferentialSuite(t *testing.T) {
	const seeds = 50
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			topo := cluster.Topology{
				Racks:           1 + rng.Intn(2),
				MachinesPerRack: 4 + rng.Intn(4),
				SlotsPerMachine: 2 + rng.Intn(3),
			}
			ntasks := 1 + rng.Intn(3)
			class := cluster.Batch
			if rng.Intn(2) == 1 {
				class = cluster.Service
			}
			specs := make([]cluster.TaskSpec, ntasks)
			for i := range specs {
				specs[i] = cluster.TaskSpec{
					Duration:  time.Duration(rng.Intn(10)) * time.Second,
					InputFile: int64(rng.Intn(100)),
					InputSize: int64(rng.Intn(1 << 20)),
					NetDemand: int64(rng.Intn(50)),
				}
			}

			var clock time.Duration
			s := manualTemplateService(topo, &clock)
			events, cancel := s.Watch()
			defer cancel()

			// preOcc snapshots per-machine occupancy after the round's op
			// drain (completions enacted) but before admission/solve — the
			// baseline both the realized cost and the twin solve price
			// against.
			preOcc := make(map[cluster.MachineID]int)
			s.testHookBeforeSchedule = func() {
				for k := range preOcc {
					delete(preOcc, k)
				}
				s.cl.Machines(func(m *cluster.Machine) {
					preOcc[m.ID] = m.Running()
				})
			}

			model := policy.NewLoadSpread(s.cl) // for CostPerTask only

			// A static background job pins a non-trivial occupancy profile
			// for the whole run; it is placed in its own round so every loop
			// round's placements belong to that round's recurring job alone.
			bgTasks := 1 + rng.Intn(2)
			if _, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, bgTasks)); err != nil {
				t.Fatalf("seed %d background Submit: %v", seed, err)
			}
			clock += time.Millisecond
			if _, err := s.runRound(); err != nil {
				t.Fatalf("seed %d background round: %v", seed, err)
			}
			if got := len(drainPlacements(events)); got != bgTasks {
				t.Fatalf("seed %d background round placed %d of %d tasks", seed, got, bgTasks)
			}

			// The recurring job normally completes before its shape recurs
			// (the steady state the cache serves), but some rounds skip the
			// completion so the next submission arrives at a shifted profile
			// and must miss and re-record.
			const rounds = 12
			var outstanding []*cluster.Job
			for round := 0; round < rounds; round++ {
				if len(outstanding) > 0 && (rng.Intn(4) != 0 || len(outstanding) >= 2) {
					for _, j := range outstanding {
						for _, tid := range j.Tasks {
							if err := s.Complete(tid); err != nil {
								t.Fatalf("seed %d round %d Complete: %v", seed, round, err)
							}
						}
					}
					outstanding = outstanding[:0]
				}
				job, err := s.Submit(class, 0, specs)
				if err != nil {
					t.Fatalf("seed %d round %d Submit: %v", seed, round, err)
				}
				outstanding = append(outstanding, job)
				submitAt := clock
				clock += time.Millisecond
				if _, err := s.runRound(); err != nil {
					t.Fatalf("seed %d round %d runRound: %v", seed, round, err)
				}

				// Realized cost of this round's placements of the new job,
				// priced at the occupancy levels they actually landed at.
				occ := make(map[cluster.MachineID]int, len(preOcc))
				for m, n := range preOcc {
					occ[m] = n
				}
				var realized int64
				placed := 0
				for _, p := range drainPlacements(events) {
					if p.Kind != core.DecisionPlaced || p.Job != job.ID {
						continue
					}
					realized += int64(occ[p.Machine]) * int64(model.CostPerTask)
					occ[p.Machine]++
					placed++
				}
				if placed != ntasks {
					t.Fatalf("seed %d round %d placed %d of %d tasks", seed, round, placed, ntasks)
				}

				want := scratchCost(t, topo, preOcc, class, specs, submitAt, clock)
				if realized != want {
					t.Fatalf("seed %d round %d: realized cost %d != from-scratch cost %d (hits so far %d)",
						seed, round, realized, want, s.Stats().TemplateHits)
				}
			}
			st := s.Stats()
			if st.TemplateHits == 0 {
				t.Fatalf("seed %d: recurring workload never hit the template cache (misses %d)", seed, st.TemplateMisses)
			}
			if st.TemplateHits+st.TemplateMisses != rounds+1 {
				t.Fatalf("seed %d: hits %d + misses %d != %d submissions", seed, st.TemplateHits, st.TemplateMisses, rounds+1)
			}
		})
	}
}
