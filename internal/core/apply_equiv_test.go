package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/wal"
)

// This file pins the apply against the design it replaced, which lives on
// here, verbatim, as the oracle: the round's placements in a map of every
// task, hashed twice per task. A twin scheduler applying through the oracle
// must enact exactly the decisions, in exactly the order, with exactly the
// ApplyStats of the scheduler under test, which reads the node-indexed
// placement table — through seeded random schedules that also move the
// cluster behind both schedulers' backs between a solve and its apply.

// mapApplyRoundRecorded is ApplyRoundRecorded as it was before the
// placement table.
func mapApplyRoundRecorded(s *Scheduler, r *Round, now time.Duration, rec func(Decision)) ApplyStats {
	var st ApplyStats
	// Deterministic application order.
	s.gm.upd.ids = sortedKeys(s.gm.upd.ids, s.gm.taskNode)
	ids := s.gm.upd.ids

	// Preemptions and migrations first so their slots free up for
	// placements within the same round.
	for _, id := range ids {
		t := s.cl.Task(id)
		if t == nil || t.State != cluster.TaskRunning {
			continue
		}
		// Capture decision metadata before any mutation: the record's
		// lifecycle fields can change (or the record vanish from callers'
		// view) once the cluster is touched.
		job, submitted := t.Job, t.SubmitTime
		want, mapped := r.Mappings[id]
		switch {
		case !mapped:
			if err := s.cl.Preempt(id, now); err == nil {
				st.Preempted++
				if rec != nil {
					rec(Decision{Task: id, Kind: DecisionPreempted, Machine: cluster.InvalidMachine,
						Job: job, SubmitTime: submitted})
				}
			} else {
				st.Stale++
			}
		case want != t.Machine:
			if err := s.cl.Preempt(id, now); err != nil {
				st.Stale++
				continue
			}
			if err := s.cl.Place(id, want, now); err != nil {
				// The preemption half of the migration WAS enacted; the task
				// sits pending until the next round retries. Record it —
				// subscribers and the replay journal must see every state
				// mutation, not just fully-successful migrations.
				st.Preempted++
				st.Stale++ // the placement half went stale
				if rec != nil {
					rec(Decision{Task: id, Kind: DecisionPreempted, Machine: cluster.InvalidMachine,
						Job: job, SubmitTime: submitted})
				}
				continue
			}
			st.Migrated++
			if rec != nil {
				rec(Decision{Task: id, Kind: DecisionMigrated, Machine: want,
					Job: job, SubmitTime: submitted})
			}
		}
	}
	for _, id := range ids {
		t := s.cl.Task(id)
		if t == nil || t.State != cluster.TaskPending {
			continue
		}
		job, submitted := t.Job, t.SubmitTime
		want, mapped := r.Mappings[id]
		if !mapped {
			st.Unscheduled++
			continue
		}
		if err := s.cl.Place(id, want, now); err != nil {
			st.Stale++
			continue
		}
		st.Placed++
		if rec != nil {
			rec(Decision{Task: id, Kind: DecisionPlaced, Machine: want,
				Job: job, SubmitTime: submitted})
		}
	}
	return st
}

// TestApplyEquivalence drives the scheduler under test and a twin applying
// through the map-keyed oracle through the same seeded schedules (the
// seeds, policies and modes of TestUpdateEquivalence), and checks every
// apply's decision sequence and ApplyStats, and the twins' fingerprints
// after every step. Across all runs the schedules must have produced every
// kind of decision, a stale one included.
func TestApplyEquivalence(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	modes := []SolverMode{ModeIncrementalCostScaling, ModeRelaxationOnly, ModeQuincy}
	var seen ApplyStats
	ran, total := 0, 0
	for _, pol := range equivPolicies() {
		for seed := 0; seed < seeds; seed++ {
			mode := modes[seed%len(modes)]
			total++
			t.Run(fmt.Sprintf("%s/%s/seed%d", pol.name, mode, seed), func(t *testing.T) {
				ran++
				runApplyEquiv(t, pol, mode, int64(seed), &seen)
			})
		}
	}
	if ran == total && !t.Failed() {
		if seen.Placed == 0 || seen.Migrated == 0 || seen.Preempted == 0 || seen.Unscheduled == 0 || seen.Stale == 0 {
			t.Fatalf("schedules left a decision kind unexercised: %+v", seen)
		}
	}
}

func runApplyEquiv(t *testing.T, pol equivPolicy, mode SolverMode, seed int64, seen *ApplyStats) {
	rng := rand.New(rand.NewSource(seed))
	const gbps = 1000 * 1000 * 1000 / 8
	topo := cluster.Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 3, NICBps: 10 * gbps}
	cfg := DefaultConfig()
	cfg.Mode = mode
	type twin struct {
		cl      *cluster.Cluster
		s       *Scheduler
		restore func() *Scheduler // rebuilt from its own snapshot
	}
	var twins [2]*twin // twins[1] applies through the oracle
	for i := range twins {
		cl := cluster.New(topo)
		model := pol.build(cl)
		twins[i] = &twin{cl: cl, s: NewScheduler(cl, model(), cfg)}
		twins[i].restore = func() *Scheduler {
			var e wal.Enc
			twins[i].s.EncodeSnapshot(&e)
			s, err := RestoreScheduler(cl, model(), cfg, wal.NewDec(e.B))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			return s
		}
	}
	ref := twins[0].cl // ops are drawn from the tested twin's state
	both := func(what string, op func(cl *cluster.Cluster) error) {
		t.Helper()
		for i, w := range twins {
			if err := op(w.cl); err != nil {
				t.Fatalf("%s on twin %d: %v", what, i, err)
			}
		}
	}

	var tasks []cluster.TaskID
	inState := func(st cluster.TaskState) []cluster.TaskID {
		var out []cluster.TaskID
		for _, id := range tasks {
			if ref.Task(id).State == st {
				out = append(out, id)
			}
		}
		return out
	}
	freeMachine := func(not cluster.MachineID) (cluster.MachineID, bool) {
		var free []cluster.MachineID
		ref.Machines(func(m *cluster.Machine) {
			if m.Healthy() && m.Running() < m.Slots && m.ID != not {
				free = append(free, m.ID)
			}
		})
		if len(free) == 0 {
			return 0, false
		}
		return free[rng.Intn(len(free))], true
	}
	var removed []cluster.MachineID
	now := time.Duration(0)

	// disturb moves the cluster without the schedulers: between a solve and
	// its apply this is what makes decisions migrate, preempt and go stale.
	disturb := func() {
		switch op := rng.Intn(6); op {
		case 0: // place directly
			pending := inState(cluster.TaskPending)
			if m, ok := freeMachine(cluster.InvalidMachine); ok && len(pending) > 0 {
				id := pending[rng.Intn(len(pending))]
				both("place", func(cl *cluster.Cluster) error { return cl.Place(id, m, now) })
			}
		case 1: // complete
			if running := inState(cluster.TaskRunning); len(running) > 0 {
				id := running[rng.Intn(len(running))]
				both("complete", func(cl *cluster.Cluster) error { return cl.Complete(id, now) })
			}
		case 2: // preempt
			if running := inState(cluster.TaskRunning); len(running) > 0 {
				id := running[rng.Intn(len(running))]
				both("preempt", func(cl *cluster.Cluster) error { return cl.Preempt(id, now) })
			}
		case 3: // migrate
			if running := inState(cluster.TaskRunning); len(running) > 0 {
				id := running[rng.Intn(len(running))]
				if m, ok := freeMachine(ref.Task(id).Machine); ok {
					both("migrate", func(cl *cluster.Cluster) error {
						if err := cl.Preempt(id, now); err != nil {
							return err
						}
						return cl.Place(id, m, now)
					})
				}
			}
		case 4: // machine remove
			if len(removed) < 4 {
				m := cluster.MachineID(rng.Intn(ref.NumMachines()))
				if !slices.Contains(removed, m) {
					removed = append(removed, m)
					both("remove machine", func(cl *cluster.Cluster) error { return cl.RemoveMachine(m, now) })
				}
			}
		default: // machine restore
			if len(removed) > 0 {
				i := rng.Intn(len(removed))
				m := removed[i]
				removed = slices.Delete(removed, i, i+1)
				both("restore machine", func(cl *cluster.Cluster) error { return cl.RestoreMachine(m, now) })
			}
		}
	}

	for step := 0; step < 120; step++ {
		now += time.Duration(rng.Intn(3000)) * time.Millisecond
		switch op := rng.Intn(20); {
		case op < 5: // submit
			specs := make([]cluster.TaskSpec, 1+rng.Intn(7))
			for i := range specs {
				specs[i] = pol.spec(rng)
			}
			for i, w := range twins {
				j := w.cl.SubmitJob(cluster.Batch, 0, now, specs)
				if i == 0 {
					tasks = append(tasks, j.Tasks...)
				}
			}
		case op < 12: // solve, disturb, apply
			// A hand-built Round overrides one placement and drops
			// another, so it differs from the table the solve extracted.
			handBuilt := rng.Intn(4) == 0
			override, drop := rng.Intn(1<<30), rng.Intn(1<<30)
			to := cluster.MachineID(rng.Intn(ref.NumMachines()))
			var rounds [2]*Round
			for i, w := range twins {
				r, err := w.s.Schedule(now)
				if err != nil {
					t.Fatalf("step %d: schedule on twin %d: %v", step, i, err)
				}
				if i == 1 || handBuilt {
					m := w.s.gm.ExtractPlacements()
					if ids := sortedKeys(nil, w.s.gm.taskNode); handBuilt && len(ids) > 0 {
						m[ids[override%len(ids)]] = to
						delete(m, ids[drop%len(ids)])
					}
					r = &Round{Mappings: m}
				}
				rounds[i] = r
			}
			for k := rng.Intn(4); k > 0; k-- {
				disturb()
			}
			var decs [2][]Decision
			var stats [2]ApplyStats
			stats[0] = twins[0].s.ApplyRoundRecorded(rounds[0], now, func(d Decision) { decs[0] = append(decs[0], d) })
			stats[1] = mapApplyRoundRecorded(twins[1].s, rounds[1], now, func(d Decision) { decs[1] = append(decs[1], d) })
			if stats[0] != stats[1] || !slices.Equal(decs[0], decs[1]) {
				t.Fatalf("step %d (t=%v, hand-built %v): apply %+v %v, oracle %+v %v",
					step, now, handBuilt, stats[0], decs[0], stats[1], decs[1])
			}
			seen.Placed += stats[0].Placed
			seen.Migrated += stats[0].Migrated
			seen.Preempted += stats[0].Preempted
			seen.Unscheduled += stats[0].Unscheduled
			seen.Stale += stats[0].Stale
		case op < 14: // update without solving (template-only rounds)
			for _, w := range twins {
				w.s.UpdateOnly(now)
			}
		case op < 19:
			disturb()
		default: // snapshot → RestoreScheduler, solved or not
			for _, w := range twins {
				w.s = w.restore()
			}
		}
		if a, b := twins[0].s.Fingerprint(), twins[1].s.Fingerprint(); a != b {
			t.Fatalf("step %d (t=%v): fingerprint %x, oracle twin %x", step, now, a, b)
		}
	}
	if err := twins[0].s.gm.sanityCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRoundPanics checks that a Round whose table has moved on is
// refused rather than misread: after a later Schedule, after an UpdateOnly
// that folded a task arrival (whose node could reuse a departed task's),
// and on a scheduler other than its own. A current Round still applies.
func TestStaleRoundPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, "Round") {
				t.Fatalf("%s: recovered %q, want a panic about the Round", what, msg)
			}
		}()
		f()
	}
	cl := smallCluster()
	s := newTestScheduler(cl, ModeIncrementalCostScaling)
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 4))
	r1, err := s.Schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.Machine(job.Tasks[0]); !ok {
		t.Fatal("fresh round leaves a task unplaced on an empty cluster")
	}
	r2, err := s.Schedule(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("apply after a later Schedule", func() { s.ApplyRound(r1, time.Second) })
	mustPanic("read after a later Schedule", func() { r1.Machine(job.Tasks[0]) })

	cl.SubmitJob(cluster.Batch, 0, 2*time.Second, make([]cluster.TaskSpec, 1))
	s.UpdateOnly(2 * time.Second)
	mustPanic("apply after UpdateOnly folded an arrival", func() { s.ApplyRound(r2, 2*time.Second) })

	r3, err := s.Schedule(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	other := newTestScheduler(cl, ModeIncrementalCostScaling)
	mustPanic("apply on another scheduler", func() { other.ApplyRound(r3, 3*time.Second) })
	if ap := s.ApplyRound(r3, 3*time.Second); ap.Placed != 5 {
		t.Fatalf("current round placed %d tasks, want 5", ap.Placed)
	}
}
