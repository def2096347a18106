package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/template"
	"firmament/internal/wal"
)

// detCfg is the deterministic solver configuration the equivalence tests
// run under: incremental cost scaling only, so twin runs with identical
// inputs produce bit-identical flow networks (ModeFirmament's speculative
// race is timing-dependent by design).
func detCfg() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.ModeIncrementalCostScaling
	return c
}

// manualService builds a non-durable service whose rounds the test drives
// by hand (no scheduling loop), on an injectable virtual clock.
func manualService(topo cluster.Topology, clock *time.Duration) *Service {
	return manualServiceCfg(topo, clock, Config{})
}

func manualServiceCfg(topo cluster.Topology, clock *time.Duration, cfg Config) *Service {
	cl := cluster.New(topo)
	s := newService(cl, policy.NewLoadSpread(cl), detCfg(), cfg)
	s.testHookNow = func() time.Duration { return *clock }
	return s
}

// manualDurable builds (or restores) a durable service over dir, loop not
// started. It mirrors Open minus the goroutines.
func manualDurable(t *testing.T, dir string, clock *time.Duration) (*Service, *RestoreInfo) {
	t.Helper()
	return manualDurableCfg(t, dir, clock, Config{})
}

func manualDurableCfg(t *testing.T, dir string, clock *time.Duration, svcCfg Config) (*Service, *RestoreInfo) {
	t.Helper()
	dur := DurabilityConfig{
		Dir:           dir,
		Sync:          wal.SyncNone, // flushed-on-ack is what a kill -9 test needs
		SnapshotEvery: 4,            // several snapshot cuts within a short run
		SegmentBytes:  4096,         // force segment rotation too
	}.withDefaults()
	opts := Options{
		Topology:   cluster.Topology{Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 4},
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Service:    svcCfg,
		Durability: dur,
	}
	s, info, err := buildFromJournal(opts, false)
	if err != nil {
		t.Fatalf("buildFromJournal: %v", err)
	}
	s.testHookNow = func() time.Duration { return *clock }
	return s, info
}

// TestStaleMachineOpsCounted is the regression test for the silent op-loss
// fix: machine remove/restore ops whose target state already moved on used
// to vanish without a trace — they must now count as StaleMachineOps.
func TestStaleMachineOpsCounted(t *testing.T) {
	var clock time.Duration
	s := manualService(cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 2}, &clock)

	// Two removes of machine 1 (second is stale) and a restore of the
	// never-removed machine 2 (stale).
	for _, id := range []cluster.MachineID{1, 1} {
		if err := s.RemoveMachine(id); err != nil {
			t.Fatalf("RemoveMachine(%d): %v", id, err)
		}
	}
	if err := s.RestoreMachine(2); err != nil {
		t.Fatalf("RestoreMachine(2): %v", err)
	}
	clock = time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}

	st := s.Stats()
	if st.StaleMachineOps != 2 {
		t.Fatalf("StaleMachineOps = %d, want 2 (one duplicate remove + one bogus restore)", st.StaleMachineOps)
	}
	if s.cl.Machine(1).Healthy() {
		t.Fatal("machine 1 should have been removed by the non-stale op")
	}
	if !s.cl.Machine(2).Healthy() {
		t.Fatal("machine 2 must be untouched by the stale restore")
	}
}

// TestPlacementMetadataUnderChurn is the regression test for the latency
// fix: placements published in a round that also drained completions must
// still carry the task's job and a positive submission→placement latency.
// The old code looked the task record up again after the decisions had
// mutated cluster state, and zeroed both on a lookup miss.
func TestPlacementMetadataUnderChurn(t *testing.T) {
	var clock time.Duration
	s := manualService(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, &clock)
	events, cancel := s.Watch()
	defer cancel()

	jobA, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}

	// Complete A's task and submit B so the next round's drain batch holds
	// the completion and the round places B — the complete-then-place race.
	if err := s.Complete(jobA.Tasks[0]); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	clock = 2 * time.Millisecond
	jobB, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = 5 * time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}

	var sawB bool
	for len(events) > 0 {
		p := <-events
		if p.Kind != core.DecisionPlaced {
			continue
		}
		if p.Job == 0 && p.Task != jobA.Tasks[0] {
			t.Fatalf("placement of task %d lost its job ID", p.Task)
		}
		if p.Task == jobB.Tasks[0] {
			sawB = true
			if p.Job != jobB.ID {
				t.Fatalf("placement of B carries job %d, want %d", p.Job, jobB.ID)
			}
			if want := 5*time.Millisecond - 2*time.Millisecond; p.Latency != want {
				t.Fatalf("placement latency %v, want %v (was zeroed under churn)", p.Latency, want)
			}
		}
	}
	if !sawB {
		t.Fatal("job B never placed")
	}
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
}

// scriptAction is one step of the random workload script the equivalence
// test replays against twin services.
type scriptAction struct {
	kind    int // 0 submit, 1 complete, 2 remove machine, 3 restore machine
	tasks   int
	task    cluster.TaskID
	machine cluster.MachineID
}

// genScript builds R rounds of random front-door traffic. Task IDs are
// deterministic (jobs allocate sequentially from 0), so the same script
// drives two independent services identically.
func genScript(rng *rand.Rand, rounds int) [][]scriptAction {
	script := make([][]scriptAction, rounds)
	jobs := 0
	jobTasks := []int{}
	for r := range script {
		var acts []scriptAction
		for i := rng.Intn(3); i > 0; i-- {
			n := 1 + rng.Intn(3)
			acts = append(acts, scriptAction{kind: 0, tasks: n})
			jobs++
			jobTasks = append(jobTasks, n)
		}
		if jobs > 0 {
			for i := rng.Intn(4); i > 0; i-- {
				j := rng.Intn(jobs)
				id := cluster.TaskID(int64(j)<<32 | int64(rng.Intn(jobTasks[j])))
				acts = append(acts, scriptAction{kind: 1, task: id})
			}
		}
		if rng.Intn(4) == 0 {
			acts = append(acts, scriptAction{kind: 2, machine: cluster.MachineID(rng.Intn(4))})
		}
		if rng.Intn(4) == 0 {
			acts = append(acts, scriptAction{kind: 3, machine: cluster.MachineID(rng.Intn(4))})
		}
		script[r] = acts
	}
	return script
}

func applyScript(t *testing.T, s *Service, acts []scriptAction) {
	t.Helper()
	for _, a := range acts {
		var err error
		switch a.kind {
		case 0:
			_, err = s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, a.tasks))
		case 1:
			err = s.Complete(a.task) // staleness is part of the workload
		case 2:
			err = s.RemoveMachine(a.machine)
		case 3:
			err = s.RestoreMachine(a.machine)
		}
		if err != nil {
			t.Fatalf("script action %+v: %v", a, err)
		}
	}
}

// drainPlacements empties a subscriber channel (manual rounds publish
// synchronously, so everything from prior rounds is buffered).
func drainPlacements(ch <-chan Placement) []Placement {
	var out []Placement
	for len(ch) > 0 {
		out = append(out, <-ch)
	}
	return out
}

// TestCrashRecoveryEquivalence is the property-style differential test: a
// durable service runs N random rounds of traffic, is killed without
// warning (no graceful snapshot — exactly what kill -9 leaves behind:
// snapshot cuts plus a flushed WAL tail plus acknowledged-but-unenacted
// ops), and is restored. The restored service must match an uninterrupted
// twin that saw the identical workload: cluster tables, flow-graph
// structure (both via snapshot-encoding fingerprints), counters, and the
// next round's placements. The restored run must also warm-start — zero
// from-scratch solves across the whole crash+replay+resume cycle.
func TestCrashRecoveryEquivalence(t *testing.T) {
	for _, withTemplates := range []bool{false, true} {
		variant := "solver"
		if withTemplates {
			variant = "templates"
		}
		for _, seed := range []int64{1, 7, 42} {
			seed := seed
			withTemplates := withTemplates
			t.Run(fmt.Sprintf("%s/seed%d", variant, seed), func(t *testing.T) {
				crashRecoveryEquivalence(t, seed, withTemplates)
			})
		}
	}
}

func crashRecoveryEquivalence(t *testing.T, seed int64, withTemplates bool) {
	{
		{
			rng := rand.New(rand.NewSource(seed))
			const rounds = 10
			script := genScript(rng, rounds)
			tail := genScript(rng, 1)[0] // acknowledged after the last round, never enacted

			var clock time.Duration
			dir := t.TempDir()
			svcCfg := Config{Templates: withTemplates}
			a, info := manualDurableCfg(t, dir, &clock, svcCfg)
			if info.Restored || info.ReplayedRecords != 0 {
				t.Fatalf("fresh dir reported restore: %+v", info)
			}
			// The twin sees the identical workload uninterrupted. In the
			// template variant it must be durable too (snapshot pacing forces
			// solves on snapshot rounds, so a non-durable twin's solve
			// cadence — and flow-graph state — would diverge); it just never
			// crashes.
			var b *Service
			if withTemplates {
				b, _ = manualDurableCfg(t, t.TempDir(), &clock, svcCfg)
			} else {
				b = manualService(cluster.Topology{Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 4}, &clock)
			}

			// Warm the template cache on both twins before the random phase:
			// a recurring shape submitted, placed, retired, and resubmitted
			// guarantees at least one recorded template and one cache hit is
			// live at crash time.
			if withTemplates {
				// Three cycles, not two: together with the 10 random rounds
				// the total is 13, so the last round does not coincide with a
				// SnapshotEvery=4 cut and a journal tail is left to replay.
				warmShape := make([]cluster.TaskSpec, 2)
				for cycle := 0; cycle < 3; cycle++ {
					clock += time.Millisecond
					ja, err := a.Submit(cluster.Batch, 0, warmShape)
					if err != nil {
						t.Fatalf("warm-up Submit: %v", err)
					}
					jb, err := b.Submit(cluster.Batch, 0, warmShape)
					if err != nil {
						t.Fatalf("warm-up twin Submit: %v", err)
					}
					clock += time.Millisecond
					if _, err := a.runRound(); err != nil {
						t.Fatalf("warm-up round: %v", err)
					}
					if _, err := b.runRound(); err != nil {
						t.Fatalf("warm-up twin round: %v", err)
					}
					for i := range ja.Tasks {
						if err := a.Complete(ja.Tasks[i]); err != nil {
							t.Fatalf("warm-up Complete: %v", err)
						}
						if err := b.Complete(jb.Tasks[i]); err != nil {
							t.Fatalf("warm-up twin Complete: %v", err)
						}
					}
				}
				if st := a.Stats(); st.TemplateHits == 0 {
					t.Fatalf("warm-up produced no template hits (misses %d)", st.TemplateMisses)
				}
			}

			for r := 0; r < rounds; r++ {
				clock += time.Millisecond
				applyScript(t, a, script[r])
				applyScript(t, b, script[r])
				clock += time.Millisecond
				if _, err := a.runRound(); err != nil {
					t.Fatalf("durable round %d: %v", r, err)
				}
				if _, err := b.runRound(); err != nil {
					t.Fatalf("twin round %d: %v", r, err)
				}
			}
			// Traffic acknowledged after the last round: it must survive the
			// crash as pending work.
			clock += time.Millisecond
			applyScript(t, a, tail)
			applyScript(t, b, tail)

			if withTemplates {
				if got, want := a.TemplateCacheFingerprint(), b.TemplateCacheFingerprint(); got != want {
					t.Fatalf("template caches diverged pre-kill (live bug, not a replay bug): %x != %x (lens %d/%d)",
						got, want, a.TemplateCacheLen(), b.TemplateCacheLen())
				}
			}

			// Kill A: drop it on the floor. Everything acknowledged was
			// flushed; nothing was gracefully snapshot.
			aWatch, aCancel := a.Watch()
			defer aCancel()
			_ = aWatch // subscriber on the dead service must not matter

			a2, info2 := manualDurableCfg(t, dir, &clock, svcCfg)
			if !info2.Restored {
				t.Fatal("expected a snapshot restore")
			}
			if info2.ReplayedRounds == 0 {
				t.Fatal("expected journal tail rounds past the snapshot")
			}
			if info2.PendingOps == 0 && len(tail) > 1 {
				t.Logf("note: tail script had no queued ops (submits only)")
			}

			if got, want := a2.cl.Fingerprint(), b.cl.Fingerprint(); got != want {
				t.Fatalf("cluster fingerprint diverged after restore: %x != %x", got, want)
			}
			if got, want := a2.sched.Fingerprint(), b.sched.Fingerprint(); got != want {
				t.Fatalf("scheduler fingerprint diverged after restore: %x != %x", got, want)
			}
			compareCounters(t, "post-restore", a2.Stats(), b.Stats())

			// One more round on both: the placements must be identical and
			// the restored solver must never fall back to from-scratch.
			wa, cancelA := a2.Watch()
			defer cancelA()
			wb, cancelB := b.Watch()
			defer cancelB()
			clock += time.Millisecond
			extra := genScript(rng, 1)[0]
			applyScript(t, a2, extra)
			applyScript(t, b, extra)
			clock += time.Millisecond
			if _, err := a2.runRound(); err != nil {
				t.Fatalf("post-restore round: %v", err)
			}
			if _, err := b.runRound(); err != nil {
				t.Fatalf("twin final round: %v", err)
			}
			pa, pb := drainPlacements(wa), drainPlacements(wb)
			if len(pa) != len(pb) {
				t.Fatalf("placement count diverged: restored %d, twin %d", len(pa), len(pb))
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("placement %d diverged:\nrestored: %+v\ntwin:     %+v", i, pa[i], pb[i])
				}
			}
			if got, want := a2.cl.Fingerprint(), b.cl.Fingerprint(); got != want {
				t.Fatalf("cluster fingerprint diverged after extra round: %x != %x", got, want)
			}
			if got, want := a2.sched.Fingerprint(), b.sched.Fingerprint(); got != want {
				t.Fatalf("scheduler fingerprint diverged after extra round: %x != %x", got, want)
			}
			st := a2.Stats()
			if st.SolverFullRestarts != b.Stats().SolverFullRestarts {
				t.Fatalf("restored run's full restarts %d != twin's %d — the snapshot failed to carry the warm state",
					st.SolverFullRestarts, b.Stats().SolverFullRestarts)
			}
			if st.SolverWarmStarts == 0 {
				t.Fatal("no warm starts recorded across restore")
			}

			if withTemplates {
				// The warm cache must survive the crash bit for bit: the
				// restored cache equals the uninterrupted twin's, and the
				// restored service keeps serving hits. A fresh recurring
				// cycle proves the restored cache is live, not just present.
				if got, want := a2.TemplateCacheFingerprint(), b.TemplateCacheFingerprint(); got != want {
					a2.tmpl.cache.Range(func(tp *template.Template) { t.Logf("restored: fp %x shape %+v assign %v", tp.FP, tp.Shape, tp.Assign) })
					b.tmpl.cache.Range(func(tp *template.Template) { t.Logf("twin:     fp %x shape %+v assign %v", tp.FP, tp.Shape, tp.Assign) })
					t.Fatalf("template cache fingerprint diverged after restore: %x != %x", got, want)
				}
				if got, want := a2.TemplateCacheLen(), b.TemplateCacheLen(); got != want {
					t.Fatalf("restored cache holds %d templates, twin holds %d", got, want)
				}
				if st.TemplateHits == 0 {
					t.Fatal("template hit counter lost across restore")
				}
				free := 0
				a2.cl.Machines(func(m *cluster.Machine) {
					if m.Healthy() {
						free += m.Slots - m.Running()
					}
				})
				if free >= 3 && a2.cl.NumPending() == 0 {
					hitsBefore := a2.Stats().TemplateHits
					postShape := make([]cluster.TaskSpec, 3)
					for cycle := 0; cycle < 2; cycle++ {
						clock += time.Millisecond
						ja, err := a2.Submit(cluster.Batch, 0, postShape)
						if err != nil {
							t.Fatalf("post-restore Submit: %v", err)
						}
						jb, err := b.Submit(cluster.Batch, 0, postShape)
						if err != nil {
							t.Fatalf("post-restore twin Submit: %v", err)
						}
						clock += time.Millisecond
						if _, err := a2.runRound(); err != nil {
							t.Fatalf("post-restore cycle round: %v", err)
						}
						if _, err := b.runRound(); err != nil {
							t.Fatalf("post-restore twin cycle round: %v", err)
						}
						for i := range ja.Tasks {
							if err := a2.Complete(ja.Tasks[i]); err != nil {
								t.Fatalf("post-restore Complete: %v", err)
							}
							if err := b.Complete(jb.Tasks[i]); err != nil {
								t.Fatalf("post-restore twin Complete: %v", err)
							}
						}
					}
					if got := a2.Stats().TemplateHits; got <= hitsBefore {
						t.Fatalf("restored service served no new template hits (%d before, %d after)", hitsBefore, got)
					}
					compareCounters(t, "post-restore-cycle", a2.Stats(), b.Stats())
				} else {
					t.Logf("cluster too loaded for post-restore hit cycle (free %d, pending %d)", free, a2.cl.NumPending())
				}
			}
		}
	}
}

func compareCounters(t *testing.T, when string, a, b Stats) {
	t.Helper()
	type pair struct {
		name string
		a, b int64
	}
	for _, p := range []pair{
		{"Rounds", a.Rounds, b.Rounds},
		{"Submitted", a.Submitted, b.Submitted},
		{"Placed", a.Placed, b.Placed},
		{"Migrated", a.Migrated, b.Migrated},
		{"Preempted", a.Preempted, b.Preempted},
		{"Completed", a.Completed, b.Completed},
		{"StaleCompletions", a.StaleCompletions, b.StaleCompletions},
		{"StaleMachineOps", a.StaleMachineOps, b.StaleMachineOps},
		{"StaleDecisions", a.StaleDecisions, b.StaleDecisions},
		{"Unscheduled", a.Unscheduled, b.Unscheduled},
		{"Pending", a.Pending, b.Pending},
		{"Running", a.Running, b.Running},
		{"TemplateHits", a.TemplateHits, b.TemplateHits},
		{"TemplateMisses", a.TemplateMisses, b.TemplateMisses},
		{"TemplateInvalidations", a.TemplateInvalidations, b.TemplateInvalidations},
	} {
		if p.a != p.b {
			t.Errorf("%s: %s = %d, twin has %d", when, p.name, p.a, p.b)
		}
	}
}

// TestDurableGracefulRestart exercises the public Open path end to end: a
// real service (loop running) takes traffic, closes gracefully (final
// snapshot), and reopens with everything intact and zero replay.
func TestDurableGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Topology:   cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 4},
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Service:    Config{RoundInterval: 200 * time.Microsecond},
		Durability: DurabilityConfig{Dir: dir, Sync: wal.SyncBatch},
	}
	svc, info, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if info.Restored {
		t.Fatal("fresh dir reported a restore")
	}
	events, cancel := svc.Watch()
	job, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 8))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	placed := make(map[cluster.TaskID]bool)
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced {
			placed[p.Task] = true
		}
		return len(placed) == 8
	})
	cancel()
	stBefore := svc.Stats()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2, info2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	if !info2.Restored {
		t.Fatal("expected snapshot restore")
	}
	if info2.ReplayedRounds != 0 {
		t.Fatalf("graceful close left %d rounds to replay", info2.ReplayedRounds)
	}
	if info2.RunningTasks != 8 {
		t.Fatalf("restored %d running tasks, want 8", info2.RunningTasks)
	}
	st := svc2.Stats()
	if st.Placed != stBefore.Placed || st.Submitted != stBefore.Submitted {
		t.Fatalf("counters lost: placed %d/%d submitted %d/%d",
			st.Placed, stBefore.Placed, st.Submitted, stBefore.Submitted)
	}
	if svc2.cl.Job(job.ID) == nil {
		t.Fatalf("job %d lost across restart", job.ID)
	}
	// The restored service must still schedule: complete everything and
	// submit another job.
	events2, cancel2 := svc2.Watch()
	defer cancel2()
	for _, id := range job.Tasks {
		if err := svc2.Complete(id); err != nil {
			t.Fatalf("Complete(%d): %v", id, err)
		}
	}
	job2, err := svc2.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 4))
	if err != nil {
		t.Fatalf("Submit after restore: %v", err)
	}
	placed2 := make(map[cluster.TaskID]bool)
	drainUntil(t, events2, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced && p.Job == job2.ID {
			placed2[p.Task] = true
		}
		return len(placed2) == 4
	})
	if st := svc2.Stats(); st.SolverFullRestarts != 0 {
		t.Fatalf("restored service paid %d from-scratch solves", st.SolverFullRestarts)
	}
}

// TestOpenReplaysWALWithoutSnapshot covers the crash-before-first-snapshot
// path: a journal with records but no snapshot must replay from scratch.
func TestOpenReplaysWALWithoutSnapshot(t *testing.T) {
	var clock time.Duration
	dir := t.TempDir()
	a, _ := manualDurable(t, dir, &clock)
	clock = time.Millisecond
	job, err := a.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = 2 * time.Millisecond
	if _, err := a.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	// Crash with zero snapshots cut (SnapshotEvery is 4).

	a2, info := manualDurable(t, dir, &clock)
	if info.Restored {
		t.Fatal("no snapshot existed, yet Restored is set")
	}
	if info.ReplayedRounds != 1 {
		t.Fatalf("replayed %d rounds, want 1", info.ReplayedRounds)
	}
	if a2.cl.Job(job.ID) == nil {
		t.Fatalf("job %d lost", job.ID)
	}
	if got, want := a2.cl.Fingerprint(), a.cl.Fingerprint(); got != want {
		t.Fatalf("cluster fingerprint diverged: %x != %x", got, want)
	}
	if got, want := a2.sched.Fingerprint(), a.sched.Fingerprint(); got != want {
		t.Fatalf("scheduler fingerprint diverged: %x != %x", got, want)
	}
}

// TestReplayDoesNotResurrectRetiredJobs pins the replay rule for submit
// records: a queued intent — the only thing that can hold the replay window
// open past a registered submit — pulls the window back past a newer job
// that was placed, completed and retired before the cut. That job's record
// is in the window and its job is absent from the snapshot, yet replay must
// not register it again: absent means retired here, not missed.
func TestReplayDoesNotResurrectRetiredJobs(t *testing.T) {
	var clock time.Duration
	dir := t.TempDir()
	a, _ := manualDurable(t, dir, &clock)
	round := func() {
		t.Helper()
		clock += time.Millisecond
		if _, err := a.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}

	old, err := a.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	round() // 1: old placed

	// A slow Complete of old's task: its intent is journaled, but the op
	// reaches the queue only later (the front door is between the two).
	done := op{kind: opComplete, task: old.Tasks[0]}
	var e wal.Enc
	encodeIntentRecord(&e, done)
	if done.seq, err = a.jrn.Append(e.B); err != nil {
		t.Fatalf("append intent: %v", err)
	}

	// A newer job lives its whole life meanwhile.
	job, err := a.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	round() // 2: job placed
	for _, id := range job.Tasks {
		if err := a.Complete(id); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	round() // 3: job completed and retired
	if a.cl.Job(job.ID) != nil {
		t.Fatalf("job %d finished but was not retired", job.ID)
	}

	// The slow Complete queues its op after round 4's drain; round 4 cuts
	// the snapshot with it queued, so the window opens at its intent.
	a.testHookBeforeSchedule = func() {
		a.testHookBeforeSchedule = nil
		a.opMu.Lock()
		a.ops = append(a.ops, done)
		a.opMu.Unlock()
		a.opsQueued.Add(1)
	}
	round() // 4: snapshot
	if a.lastSnapRound != 4 {
		t.Fatalf("round 4 cut no snapshot (last at %d)", a.lastSnapRound)
	}
	round() // 5: old completed and retired

	// Crash (no Close) and restore.
	b, info := manualDurable(t, dir, &clock)
	if !info.Restored || info.SnapshotRound != 4 || info.ReplayedRounds != 1 {
		t.Fatalf("RestoreInfo %+v, want the round-4 snapshot and one replayed round", *info)
	}
	if b.cl.Job(job.ID) != nil {
		t.Fatalf("retired job %d resurrected by replay", job.ID)
	}
	if p, r, c, f := b.cl.CountStates(); p != 0 || r != 0 || c != 3 || f != 0 {
		t.Fatalf("restored CountStates (%d, %d, %d, %d), want (0, 0, 3, 0)", p, r, c, f)
	}
	if got, want := b.cl.Fingerprint(), a.cl.Fingerprint(); got != want {
		t.Fatalf("cluster fingerprint %x, want the live %x", got, want)
	}
	if got, want := b.sched.Fingerprint(), a.sched.Fingerprint(); got != want {
		t.Fatalf("scheduler fingerprint %x, want the live %x", got, want)
	}
}

// TestSnapshotWaitsForFrontDoor pins the pause a snapshot cut takes: with a
// submit journaled but its job not yet registered (the front door holds
// closeMu's read side between the two), a round due to snapshot must not
// finish until the submit does. The snapshot then holds the job, so a
// restore finds it though the replay window opens past its record.
func TestSnapshotWaitsForFrontDoor(t *testing.T) {
	var clock time.Duration
	dir := t.TempDir()
	a, _ := manualDurable(t, dir, &clock)
	for i := 0; i < 3; i++ {
		clock += time.Millisecond
		if _, err := a.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}

	// The front door, halfway through a durable submit.
	clock += time.Millisecond
	a.closeMu.RLock()
	id, specs := a.cl.AllocJobID(), make([]cluster.TaskSpec, 1)
	var e wal.Enc
	encodeSubmitRecord(&e, id, cluster.Batch, 0, clock, specs)
	if _, err := a.jrn.Append(e.B); err != nil {
		t.Fatalf("append submit: %v", err)
	}

	finished := make(chan error, 1)
	go func() {
		_, err := a.runRound() // round 4: snapshot due
		finished <- err
	}()
	select {
	case err := <-finished:
		a.closeMu.RUnlock()
		t.Fatalf("the snapshot round finished (err %v) while a submit was between its append and its registration", err)
	case <-time.After(100 * time.Millisecond):
	}
	a.cl.SubmitJobWithID(id, cluster.Batch, 0, clock, specs)
	a.closeMu.RUnlock()
	if err := <-finished; err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if a.lastSnapRound != 4 {
		t.Fatalf("round 4 cut no snapshot (last at %d)", a.lastSnapRound)
	}

	// Crash (no Close) and restore from that snapshot alone.
	b, info := manualDurable(t, dir, &clock)
	if !info.Restored || info.SnapshotRound != 4 || info.ReplayedRecords != 0 {
		t.Fatalf("RestoreInfo %+v, want the round-4 snapshot and an empty tail", *info)
	}
	if b.cl.Job(id) == nil {
		t.Fatalf("job %d, journaled before the cut, lost", id)
	}
}

// TestReplayTemplateDeterminism is the regression test for the replay
// contract of template hits: a journal recorded with a warm cache contains
// rounds that never solved (every placement came from the cache), and
// Replay must reproduce those rounds from the journaled template decisions
// alone — never by re-running admission against whatever cache state replay
// happens to hold. Two independent replays of the same journal must agree
// with each other and with the live service, bit for bit.
func TestReplayTemplateDeterminism(t *testing.T) {
	var clock time.Duration
	dir := t.TempDir()
	svcCfg := Config{Templates: true}
	a, _ := manualDurableCfg(t, dir, &clock, svcCfg)

	// One miss (solved round, template recorded), then two pure hits
	// (unsolved rounds whose placements exist only as journaled template
	// decisions). The last job stays running so the journal's final state
	// has no pending work.
	shape := []cluster.TaskSpec{{Duration: time.Second}, {Duration: 2 * time.Second}}
	for cycle := 0; cycle < 3; cycle++ {
		clock += time.Millisecond
		job, err := a.Submit(cluster.Batch, 0, shape)
		if err != nil {
			t.Fatalf("cycle %d Submit: %v", cycle, err)
		}
		clock += time.Millisecond
		if _, err := a.runRound(); err != nil {
			t.Fatalf("cycle %d runRound: %v", cycle, err)
		}
		if cycle < 2 {
			for _, tid := range job.Tasks {
				if err := a.Complete(tid); err != nil {
					t.Fatalf("cycle %d Complete: %v", cycle, err)
				}
			}
		}
	}
	liveStats := a.Stats()
	if liveStats.TemplateHits != 2 || liveStats.TemplateMisses != 1 {
		t.Fatalf("scenario must produce 2 hits / 1 miss, got %d/%d",
			liveStats.TemplateHits, liveStats.TemplateMisses)
	}
	liveCluster := a.cl.Fingerprint()
	liveCache := a.TemplateCacheFingerprint()
	liveLen := a.TemplateCacheLen()
	// Kill: a is abandoned without Close, so no graceful snapshot exists
	// and every round must come back from the WAL.

	opts := Options{
		Topology:   cluster.Topology{Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 4},
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Service:    svcCfg,
		Durability: DurabilityConfig{Dir: dir},
	}
	for run := 0; run < 2; run++ {
		svc, info, err := Replay(opts)
		if err != nil {
			t.Fatalf("Replay run %d: %v", run, err)
		}
		// Stop the detached loop before comparing; idle rounds it may have
		// ticked change Rounds but none of the compared values.
		svc.Close()
		if info.ReplayedRounds != 3 {
			t.Fatalf("run %d replayed %d rounds, want 3", run, info.ReplayedRounds)
		}
		st := svc.Stats()
		if st.TemplateHits != liveStats.TemplateHits ||
			st.TemplateMisses != liveStats.TemplateMisses ||
			st.TemplateInvalidations != liveStats.TemplateInvalidations {
			t.Fatalf("run %d template counters diverged: hits %d/%d misses %d/%d invals %d/%d",
				run, st.TemplateHits, liveStats.TemplateHits,
				st.TemplateMisses, liveStats.TemplateMisses,
				st.TemplateInvalidations, liveStats.TemplateInvalidations)
		}
		if st.Placed != liveStats.Placed || st.Submitted != liveStats.Submitted {
			t.Fatalf("run %d placed/submitted diverged: %d/%d vs live %d/%d",
				run, st.Placed, st.Submitted, liveStats.Placed, liveStats.Submitted)
		}
		if got := svc.cl.Fingerprint(); got != liveCluster {
			t.Fatalf("run %d cluster fingerprint %x != live %x", run, got, liveCluster)
		}
		if got := svc.TemplateCacheFingerprint(); got != liveCache {
			t.Fatalf("run %d cache fingerprint %x != live %x", run, got, liveCache)
		}
		if got := svc.TemplateCacheLen(); got != liveLen {
			t.Fatalf("run %d cache len %d != live %d", run, got, liveLen)
		}
	}
}

// TestCloseAfterTemplateRoundSnapshots checks that a clean Close cuts its
// snapshot even when the last rounds were served from the template cache
// and never solved. The snapshot carries the whole graph, flow and
// potentials included, so the reopened service restores it with nothing to
// replay, holds the same cluster and scheduler state, and its next solve
// leaves a feasible flow that matches a twin which never stopped.
func TestCloseAfterTemplateRoundSnapshots(t *testing.T) {
	svcCfg := Config{Templates: true}
	// One miss, then two hits: the last two rounds never solve.
	shape := []cluster.TaskSpec{{Duration: time.Second}, {Duration: 2 * time.Second}}
	templateRounds := func(s *Service, clock *time.Duration) {
		for cycle := 0; cycle < 3; cycle++ {
			*clock += time.Millisecond
			job, err := s.Submit(cluster.Batch, 0, shape)
			if err != nil {
				t.Fatalf("cycle %d Submit: %v", cycle, err)
			}
			*clock += time.Millisecond
			if _, err := s.runRound(); err != nil {
				t.Fatalf("cycle %d runRound: %v", cycle, err)
			}
			if cycle == 2 {
				break // the last job stays running
			}
			for _, tid := range job.Tasks {
				if err := s.Complete(tid); err != nil {
					t.Fatalf("cycle %d Complete: %v", cycle, err)
				}
			}
		}
	}
	// A job of a new shape misses the cache, so this round solves.
	solvedRound := func(s *Service, clock *time.Duration) {
		*clock += time.Millisecond
		if _, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 3)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		*clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}

	var clock, twinClock time.Duration
	dir := t.TempDir()
	a, _ := manualDurableCfg(t, dir, &clock, svcCfg)
	templateRounds(a, &clock)
	if st := a.Stats(); st.TemplateHits != 2 || st.TemplateMisses != 1 {
		t.Fatalf("scenario must produce 2 hits / 1 miss, got %d/%d", st.TemplateHits, st.TemplateMisses)
	}
	liveCluster, liveSched := a.cl.Fingerprint(), a.sched.Fingerprint()
	close(a.doneCh) // a manual service runs no loop for Close to wait out
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	b, info := manualDurableCfg(t, dir, &clock, svcCfg)
	if !info.Restored || info.ReplayedRounds != 0 {
		t.Fatalf("restored=%v replayedRounds=%d, want a snapshot with nothing to replay",
			info.Restored, info.ReplayedRounds)
	}
	if got := b.cl.Fingerprint(); got != liveCluster {
		t.Fatalf("cluster fingerprint %x != live %x", got, liveCluster)
	}
	if got := b.sched.Fingerprint(); got != liveSched {
		t.Fatalf("scheduler fingerprint %x != live %x", got, liveSched)
	}

	// The restored graph's first solve matches a twin that never stopped.
	twin, _ := manualDurableCfg(t, t.TempDir(), &twinClock, svcCfg)
	templateRounds(twin, &twinClock)
	solvedRound(b, &clock)
	solvedRound(twin, &twinClock)
	if err := b.sched.GraphManager().Graph().CheckFeasible(); err != nil {
		t.Fatalf("flow after the first restored solve: %v", err)
	}
	if got, want := b.sched.Fingerprint(), twin.sched.Fingerprint(); got != want {
		t.Fatalf("scheduler fingerprint after the next solve %x != twin %x", got, want)
	}
	if got, want := b.cl.Fingerprint(), twin.cl.Fingerprint(); got != want {
		t.Fatalf("cluster fingerprint after the next solve %x != twin %x", got, want)
	}
}

// TestRestoreSnapshotMetaV1 covers restoreSnapshot's version-1 branch: a
// snapshot written before the template counters existed carries the first
// ten counters in its meta section and no template section. It rewrites a
// real snapshot, cut with templates off, into that form; the restore must
// recover the ten counters and the same cluster and scheduler, and leave
// the template counters zero.
func TestRestoreSnapshotMetaV1(t *testing.T) {
	var clock time.Duration
	a, _ := manualDurable(t, t.TempDir(), &clock)
	round := func() {
		t.Helper()
		clock += time.Millisecond
		if _, err := a.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}
	job, err := a.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	round()
	// One completion, a stale repeat of it, and a stale restore of a
	// healthy machine, so that most of the ten counters move.
	for _, err := range []error{a.Complete(job.Tasks[0]), a.Complete(job.Tasks[0]), a.RestoreMachine(1)} {
		if err != nil {
			t.Fatalf("queueing an op: %v", err)
		}
	}
	round()
	if c := a.ctr; c.Placed == 0 || c.Completed == 0 || c.StaleCompletions == 0 || c.StaleMachineOps == 0 {
		t.Fatalf("traffic left counters at zero: %+v", c)
	}
	// A version-2 meta carries these; the version-1 rewrite cannot.
	a.ctr.TemplateHits, a.ctr.TemplateMisses, a.ctr.TemplateInvalidations = 5, 6, 7
	if err := a.saveSnapshot(); err != nil {
		t.Fatalf("saveSnapshot: %v", err)
	}

	r, _, closeSnap, err := a.jrn.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	var v2 bytes.Buffer
	if _, err := v2.ReadFrom(r); err != nil {
		t.Fatalf("reading the snapshot: %v", err)
	}
	closeSnap()
	sections := bytes.NewReader(v2.Bytes())
	var sec [4][]byte
	for i := range sec {
		if sec[i], err = wal.ReadSection(sections); err != nil {
			t.Fatalf("snapshot section %d: %v", i, err)
		}
	}
	md := wal.NewDec(sec[0])
	if v := md.U32(); v != snapMetaVersion {
		t.Fatalf("snapshot meta version %d, want %d", v, snapMetaVersion)
	}
	var meta wal.Enc
	meta.U32(1)
	meta.I64(md.I64()) // rounds
	meta.Dur(md.Dur()) // virtual clock
	for range 10 {
		meta.I64(md.I64())
	}
	var v1 bytes.Buffer
	for _, b := range [][]byte{meta.B, sec[1], sec[2]} {
		if err := wal.WriteSection(&v1, b); err != nil {
			t.Fatalf("WriteSection: %v", err)
		}
	}

	opts := Options{
		Model:     func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler: detCfg(),
	}
	restore := func(snap []byte) *Service {
		t.Helper()
		s, _, _, err := restoreSnapshot(opts, bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("restoreSnapshot: %v", err)
		}
		return s
	}
	if got := restore(v2.Bytes()).ctr; got != a.ctr {
		t.Fatalf("version-2 restore counters %+v, want %+v", got, a.ctr)
	}
	b := restore(v1.Bytes())
	want := a.ctr
	want.TemplateHits, want.TemplateMisses, want.TemplateInvalidations = 0, 0, 0
	if b.ctr != want {
		t.Fatalf("version-1 restore counters %+v, want %+v", b.ctr, want)
	}
	if got, want := b.cl.Fingerprint(), a.cl.Fingerprint(); got != want {
		t.Fatalf("cluster fingerprint %x, want %x", got, want)
	}
	if got, want := b.sched.Fingerprint(), a.sched.Fingerprint(); got != want {
		t.Fatalf("scheduler fingerprint %x, want %x", got, want)
	}
}
