package service

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/faultfs"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// faultDur is the durability configuration the fault tests run under:
// fsync-per-ack so faults surface at the acknowledgement they endanger,
// probe pacing tuned for manual rounds (a probe per round), and the journal
// routed through the given fault-injecting FS.
func faultDur(fs wal.FS, onFailure WALFailurePolicy) DurabilityConfig {
	return DurabilityConfig{
		Sync:          wal.SyncAlways,
		SnapshotEvery: 4,
		SegmentBytes:  4096,
		OnWALFailure:  onFailure,
		ProbeInterval: time.Nanosecond, // manual rounds: probe every round
		FS:            fs,
	}
}

// manualFaulty builds (or restores) a durable manual-round service over dir
// with an explicit durability configuration — manualDurableCfg with the
// fault-injection knobs exposed.
func manualFaulty(t *testing.T, dir string, clock *time.Duration, dur DurabilityConfig) (*Service, *RestoreInfo) {
	t.Helper()
	dur.Dir = dir
	dur = dur.withDefaults()
	opts := Options{
		Topology:   cluster.Topology{Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 4},
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Durability: dur,
	}
	s, info, err := buildFromJournal(opts, false)
	if err != nil {
		t.Fatalf("buildFromJournal: %v", err)
	}
	s.testHookNow = func() time.Duration { return *clock }
	return s, info
}

// TestWALTransientSyncRetried: an EINTR during the acknowledgement fsync
// must be retried away inside the submit — the caller sees success, health
// stays ok, and the retry counter records the recovery.
func TestWALTransientSyncRetried(t *testing.T) {
	ffs := faultfs.New()
	var clock time.Duration
	s, _ := manualFaulty(t, t.TempDir(), &clock, faultDur(ffs, WALFailStop))

	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, Count: 1, Err: syscall.EINTR})
	clock = time.Millisecond
	if _, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit through a transient EINTR: %v", err)
	}
	if got := ffs.Fired(); got != 1 {
		t.Fatalf("fault fired %d times, want 1", got)
	}
	st := s.Stats()
	if st.WALRetries == 0 {
		t.Fatal("transient sync error left WALRetries at 0")
	}
	if h := s.Health(); h.State != HealthOK {
		t.Fatalf("health = %v after a retried transient error, want ok", h)
	}
}

// TestWALFailStopDistinguishable is the regression test for loop death
// looking like a graceful Close: under WALFailStop a permanent disk error
// must surface its cause through the failing call, Health, Stats, every
// subsequent front-door error, and Close()'s return — never as a bare
// "service closed".
func TestWALFailStopDistinguishable(t *testing.T) {
	ffs := faultfs.New()
	dur := faultDur(ffs, WALFailStop)
	dur.Dir = t.TempDir()
	svc, _, err := Open(Options{
		Topology:   cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 4},
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Service:    Config{RoundInterval: 100 * time.Microsecond},
		Durability: dur,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Let the round Open kicks off journal first: the fault below must
	// reach the submit, not that round.
	for svc.Stats().Rounds == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, Count: faultfs.Persistent, Err: syscall.EIO})
	_, err = svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
	if err == nil {
		t.Fatal("Submit succeeded through a persistent EIO under fail-stop")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("the failing submit itself returned ErrClosed (%v); want the disk fault", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("submit error %v does not carry the EIO cause", err)
	}
	if h := svc.Health(); h.State != HealthFailed || h.Cause == "" {
		t.Fatalf("health = %+v, want failed with a cause", h)
	}
	if st := svc.Stats(); st.Health != "failed" || st.FailureCause == "" {
		t.Fatalf("stats health %q cause %q, want failed with a cause", st.Health, st.FailureCause)
	}

	// The loop notices and dies; from then on front-door calls must return
	// ErrClosed wrapping the disk fault, not a clean-shutdown ErrClosed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err = svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		if errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop never died after the WAL failure (last submit err: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(err.Error(), "wal failure") {
		t.Fatalf("post-death submit error %q does not name the WAL failure", err)
	}
	closeErr := svc.Close()
	if closeErr == nil {
		t.Fatal("Close returned nil after a fail-stop loop death")
	}
	if !strings.Contains(closeErr.Error(), "wal failure") {
		t.Fatalf("Close error %q does not name the WAL failure", closeErr)
	}
}

// TestWALDegradeAndRearm walks the full degraded-mode cycle by hand: a
// persistent ENOSPC flips the service to volatile scheduling, probes keep
// failing while the disk is sick, Heal lets the next probe re-arm (reopened
// WAL + fresh full snapshot), and after a crash the restored service holds
// every job ever acknowledged — including the volatile window's, which the
// re-arm snapshot made durable retroactively.
func TestWALDegradeAndRearm(t *testing.T) {
	ffs := faultfs.New()
	var clock time.Duration
	dir := t.TempDir()
	s, _ := manualFaulty(t, dir, &clock, faultDur(ffs, WALDegrade))

	var jobs []cluster.JobID
	submit := func(n int) {
		t.Helper()
		clock += time.Millisecond
		job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, n))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, job.ID)
	}
	round := func() {
		t.Helper()
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}

	// Healthy phase: durable acks.
	submit(2)
	round()
	submit(1)
	round()

	// The disk goes sick: every write (journal frames at flush time, and
	// snapshot bytes alike) fails with ENOSPC.
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Count: faultfs.Persistent, Err: syscall.ENOSPC})
	submit(2) // ack fsync flushes the frame, hits ENOSPC, degrades
	if h := s.Health(); h.State != HealthDegraded {
		t.Fatalf("health = %+v after ENOSPC, want degraded", h)
	}
	if st := s.Stats(); st.FailureCause == "" || !strings.Contains(st.Health, "degraded") {
		t.Fatalf("stats health %q cause %q, want degraded with a cause", st.Health, st.FailureCause)
	}
	// Volatile window: scheduling continues, probes fail (the re-arm
	// snapshot cannot be written), service stays degraded.
	round()
	submit(1)
	round()
	if h := s.Health(); h.State != HealthDegraded {
		t.Fatalf("health = %+v while the disk is still sick, want degraded", h)
	}
	st := s.Stats()
	if st.DegradedRounds == 0 {
		t.Fatalf("DegradedRounds = 0 after volatile rounds")
	}
	if st.WALRearms != 0 {
		t.Fatalf("WALRearms = %d while the disk is sick, want 0", st.WALRearms)
	}

	// The disk heals; the next round's probe re-arms durability. A poll
	// inside that round already sees health ok, so it must already see
	// the re-arm counted.
	ffs.Heal()
	midRearms := int64(-1)
	s.testHookBeforeSchedule = func() {
		s.testHookBeforeSchedule = nil
		if s.Health().State == HealthOK {
			midRearms = s.Stats().WALRearms
		}
	}
	round()
	if midRearms != 1 {
		t.Fatalf("mid-round poll after the re-arm: WALRearms = %d, want 1 (-1: health not yet ok)", midRearms)
	}
	if h := s.Health(); h.State != HealthOK {
		t.Fatalf("health = %+v after heal+probe, want ok", h)
	}
	st = s.Stats()
	if st.WALRearms != 1 {
		t.Fatalf("WALRearms = %d, want 1", st.WALRearms)
	}
	if st.FailureCause != "" {
		t.Fatalf("FailureCause %q survived the re-arm, want cleared", st.FailureCause)
	}

	// Post-re-arm acks are durable again.
	submit(2)
	round()

	// Crash (no graceful close) and restore on a healthy filesystem: every
	// acknowledged job must be there — the pre-fault ones from the original
	// log+snapshots, the volatile window's from the re-arm snapshot, the
	// post-re-arm ones from the reopened log.
	a2, info := manualDurable(t, dir, &clock)
	if !info.Restored {
		t.Fatal("restore found no snapshot (the re-arm cut one)")
	}
	for _, id := range jobs {
		if a2.cl.Job(id) == nil {
			t.Fatalf("job %d lost across degrade/re-arm/crash", id)
		}
	}
	// And the restored service still schedules durably.
	clock += time.Millisecond
	if _, err := a2.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
		t.Fatalf("post-restore Submit: %v", err)
	}
	clock += time.Millisecond
	if _, err := a2.runRound(); err != nil {
		t.Fatalf("post-restore runRound: %v", err)
	}
}

// TestWALRearmRequiresWriteProbe is the regression test for a re-arm that
// trusted a writeless reopen: when only the WAL files are sick (snapshot
// files land fine — they are different files that may sit on healthy
// ground), reopening the log succeeds without touching the disk, and a
// probe-less re-arm would cut the snapshot, flip health OK, and degrade
// again on the very next append — an oscillation that burned a snapshot per
// probe and raced volatile submits into an unrecoverable journal. The
// re-arm must stay degraded until a real write probe passes.
func TestWALRearmRequiresWriteProbe(t *testing.T) {
	ffs := faultfs.New()
	dir := t.TempDir()
	var clock time.Duration
	s, _ := manualFaulty(t, dir, &clock, faultDur(ffs, WALDegrade))

	var jobs []cluster.JobID
	submit := func(n int) {
		t.Helper()
		clock += time.Millisecond
		job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, n))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, job.ID)
	}
	round := func() {
		t.Helper()
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}

	submit(2)
	round()

	// Only wal-* files fail: journal frames and the re-arm's write probe,
	// but not snapshots.
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: "wal-", Count: faultfs.Persistent, Err: syscall.ENOSPC})
	submit(1) // ack fsync flushes the frame, hits ENOSPC, degrades
	if h := s.Health(); h.State != HealthDegraded {
		t.Fatalf("health = %+v after ENOSPC, want degraded", h)
	}
	// Every round probes (ProbeInterval is a nanosecond of virtual time):
	// the reopen succeeds, the snapshot would land — only the write probe
	// stands between a sick WAL and a false OK.
	for i := 0; i < 6; i++ {
		submit(1)
		round()
		if h := s.Health(); h.State != HealthDegraded {
			t.Fatalf("health = %+v on probe %d while WAL writes still fail, want degraded", h, i)
		}
	}
	if st := s.Stats(); st.WALRearms != 0 {
		t.Fatalf("WALRearms = %d while WAL writes still fail, want 0", st.WALRearms)
	}

	ffs.Heal()
	round()
	if h := s.Health(); h.State != HealthOK {
		t.Fatalf("health = %+v after heal+probe, want ok", h)
	}
	if st := s.Stats(); st.WALRearms != 1 {
		t.Fatalf("WALRearms = %d after heal, want 1", st.WALRearms)
	}
	submit(1)
	round()

	// Crash and restore: the whole volatile window rode the re-arm
	// snapshot; nothing acknowledged may be missing.
	a2, info := manualDurable(t, dir, &clock)
	if !info.Restored {
		t.Fatal("restore found no snapshot (the re-arm cut one)")
	}
	for _, id := range jobs {
		if a2.cl.Job(id) == nil {
			t.Fatalf("job %d lost across the probe-gated re-arm", id)
		}
	}
}

// TestDegradedRoundsArmOneProbeWake: a degraded service keeps one probe
// wake pending rather than arming a timer per round — at 1 ms rounds and a
// 1 s probe interval that piled up about a thousand timers.
func TestDegradedRoundsArmOneProbeWake(t *testing.T) {
	ffs := faultfs.New()
	var clock time.Duration
	dur := faultDur(ffs, WALDegrade)
	dur.ProbeInterval = time.Second
	s, _ := manualFaulty(t, t.TempDir(), &clock, dur)

	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Count: faultfs.Persistent, Err: syscall.ENOSPC})
	clock += time.Millisecond
	if _, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if h := s.Health(); h.State != HealthDegraded {
		t.Fatalf("health = %+v after ENOSPC, want degraded", h)
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}
	if st := s.Stats(); st.DegradedRounds != rounds {
		t.Fatalf("DegradedRounds = %d, want %d", st.DegradedRounds, rounds)
	}
	if s.probeArms < 1 || s.probeArms > 2 {
		t.Fatalf("%d degraded rounds armed %d probe wakes, want 1 or 2", rounds, s.probeArms)
	}
}

// ackedSurvive checks that every acknowledged job survived into cl: a job
// may be absent only if it is one the caller finished, and the retired
// totals must count exactly the absent ones.
func ackedSurvive(cl *cluster.Cluster, acked, finished []cluster.JobID) error {
	var absent int64
	for _, id := range acked {
		if cl.Job(id) != nil {
			continue
		}
		if !slices.Contains(finished, id) {
			return fmt.Errorf("job %d lost", id)
		}
		absent++
	}
	if retired, _ := cl.Retired(); retired != absent {
		return fmt.Errorf("%d finished jobs absent but %d retired", absent, retired)
	}
	return nil
}

// TestWALFaultMatrix drives one workload across a matrix of scripted fault
// schedules — transient and permanent, sync and write and reopen and
// snapshot-rename, once and persistent — under the degrade policy, heals the
// disk mid-run, waits for re-arm, crashes, and restores. The invariant under
// every schedule: no acknowledged submit is ever lost (after a successful
// re-arm even the volatile window is durable), and the service always comes
// back to ok.
func TestWALFaultMatrix(t *testing.T) {
	cases := []struct {
		name   string
		faults []faultfs.Fault
		// wantRetryOnly marks schedules the retry path absorbs entirely:
		// the service must never degrade.
		wantRetryOnly bool
	}{
		{name: "sync-eintr-once",
			faults:        []faultfs.Fault{{Op: faultfs.OpSync, Count: 1, Err: syscall.EINTR}},
			wantRetryOnly: true},
		{name: "sync-eio-once",
			faults: []faultfs.Fault{{Op: faultfs.OpSync, Count: 1, Err: syscall.EIO}}},
		{name: "sync-eintr-persistent",
			faults: []faultfs.Fault{{Op: faultfs.OpSync, Count: faultfs.Persistent, Err: syscall.EINTR}}},
		{name: "write-enospc-window",
			faults: []faultfs.Fault{{Op: faultfs.OpWrite, Count: faultfs.Persistent, Err: syscall.ENOSPC}}},
		{name: "write-short",
			faults: []faultfs.Fault{{Op: faultfs.OpWrite, Count: 1, Err: syscall.EIO, KeepBytes: 5}}},
		{name: "write-torn-at-offset",
			faults: []faultfs.Fault{{Op: faultfs.OpWrite, Path: "wal-", Count: 1, Err: syscall.EIO, CutAt: 200}}},
		{name: "rearm-reopen-fails-once",
			faults: []faultfs.Fault{
				{Op: faultfs.OpSync, Count: 1, Err: syscall.EIO},
				{Op: faultfs.OpOpen, Path: "wal-", Count: 1, Err: syscall.EIO},
			}},
		{name: "rearm-snapshot-rename-fails-once",
			faults: []faultfs.Fault{
				{Op: faultfs.OpSync, Count: 1, Err: syscall.EIO},
				{Op: faultfs.OpRename, Path: ".tmp", Count: 1, Err: syscall.EIO},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfs.New()
			var clock time.Duration
			dir := t.TempDir()
			s, _ := manualFaulty(t, dir, &clock, faultDur(ffs, WALDegrade))

			var jobs []cluster.JobID
			var firstTasks []cluster.TaskID
			submit := func(n int) {
				t.Helper()
				clock += time.Millisecond
				job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, n))
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				jobs = append(jobs, job.ID)
				firstTasks = append(firstTasks, job.Tasks...)
			}
			round := func() {
				t.Helper()
				clock += time.Millisecond
				if _, err := s.runRound(); err != nil {
					t.Fatalf("runRound: %v", err)
				}
			}

			// Healthy prefix.
			submit(2)
			round()
			submit(1)
			round()

			// Sick window: the scripted faults go live mid-workload. The
			// completions exercise the intent path alongside submits (staleness
			// is fine — the op counts either way).
			for _, f := range tc.faults {
				ffs.Inject(f)
			}
			for i := 0; i < 3; i++ {
				submit(1)
				round()
				if err := s.Complete(firstTasks[i]); err != nil {
					t.Fatalf("Complete: %v", err)
				}
				round()
			}
			if tc.wantRetryOnly {
				if h := s.Health(); h.State != HealthOK {
					t.Fatalf("health = %+v, want ok (schedule is retry-absorbable)", h)
				}
				if s.Stats().WALRetries == 0 {
					t.Fatal("retry-absorbable schedule recorded no retries")
				}
			}

			// Heal and run probes until the service re-arms.
			ffs.Heal()
			for i := 0; i < 50 && s.Health().State != HealthOK; i++ {
				round()
			}
			if h := s.Health(); h.State != HealthOK {
				t.Fatalf("service never re-armed after heal: %+v", h)
			}
			degraded := s.Stats().WALRearms > 0

			// Post-recovery traffic, then crash and restore clean.
			submit(2)
			round()

			// Jobs 0 and 1 finished in the sick window and retired; every
			// other acknowledged job must be in the tables.
			a2, _ := manualDurable(t, dir, &clock)
			if err := ackedSurvive(a2.cl, jobs, jobs[:2]); err != nil {
				t.Fatalf("%v (schedule degraded=%v, %d faults fired)", err, degraded, ffs.Fired())
			}
			clock += time.Millisecond
			if _, err := a2.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
				t.Fatalf("post-restore Submit: %v", err)
			}
			clock += time.Millisecond
			if _, err := a2.runRound(); err != nil {
				t.Fatalf("post-restore runRound: %v", err)
			}
		})
	}
}

// TestWALFaultMatrixSeeded extends the matrix with seeded random schedules:
// two faults drawn from faultfs.RandomFault per seed, injected mid-workload.
// The durability invariant must hold under every draw.
func TestWALFaultMatrixSeeded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ffs := faultfs.New()
			var clock time.Duration
			dir := t.TempDir()
			s, _ := manualFaulty(t, dir, &clock, faultDur(ffs, WALDegrade))

			var jobs []cluster.JobID
			submit := func(n int) {
				t.Helper()
				clock += time.Millisecond
				job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, n))
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				jobs = append(jobs, job.ID)
			}
			round := func() {
				t.Helper()
				clock += time.Millisecond
				if _, err := s.runRound(); err != nil {
					t.Fatalf("runRound: %v", err)
				}
			}

			submit(2)
			round()
			ffs.Inject(faultfs.RandomFault(rng))
			ffs.Inject(faultfs.RandomFault(rng))
			for i := 0; i < 4; i++ {
				submit(1)
				round()
			}
			ffs.Heal()
			for i := 0; i < 50 && s.Health().State != HealthOK; i++ {
				round()
			}
			if h := s.Health(); h.State != HealthOK {
				t.Fatalf("seed %d never re-armed after heal: %+v", seed, h)
			}
			submit(1)
			round()

			a2, _ := manualDurable(t, dir, &clock)
			for _, id := range jobs {
				if a2.cl.Job(id) == nil {
					t.Fatalf("seed %d: job %d lost (%d faults fired)", seed, id, ffs.Fired())
				}
			}
		})
	}
}

// TestWALDegradeLiveConcurrent runs the degrade/heal/re-arm cycle on a real
// service (loop running, concurrent submitters) — the race-detector coverage
// for the health transitions, the volatile-path submits, and the re-arm's
// journal swap under the close membrane — under both fsync-per-ack and the
// batch policy, whose log paces its own background fsync.
func TestWALDegradeLiveConcurrent(t *testing.T) {
	for _, sync := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncBatch} {
		t.Run(sync.String(), func(t *testing.T) { testWALDegradeLiveConcurrent(t, sync) })
	}
}

func testWALDegradeLiveConcurrent(t *testing.T, sync wal.SyncPolicy) {
	ffs := faultfs.New()
	dur := faultDur(ffs, WALDegrade)
	dur.Dir = t.TempDir()
	dur.Sync = sync
	dur.ProbeInterval = time.Millisecond
	svc, _, err := Open(Options{
		Topology:   cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 8},
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Service:    Config{RoundInterval: 100 * time.Microsecond},
		Durability: dur,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	stop := make(chan struct{})
	done := make(chan int, 4)
	for w := 0; w < 4; w++ {
		go func() {
			n := 0
			for {
				select {
				case <-stop:
					done <- n
					return
				default:
				}
				if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
					done <- n
					return
				}
				n++
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	time.Sleep(5 * time.Millisecond)
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Count: faultfs.Persistent, Err: syscall.ENOSPC})
	// Wait for the degrade to be observed, keep the submitters running
	// through the volatile window, then heal and wait for the re-arm.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Health().State != HealthDegraded {
		if time.Now().After(deadline) {
			t.Fatal("service never degraded under persistent ENOSPC")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	ffs.Heal()
	for svc.Health().State != HealthOK {
		if time.Now().After(deadline) {
			t.Fatalf("service never re-armed after heal: %+v", svc.Health())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	total := 0
	for w := 0; w < 4; w++ {
		total += <-done
	}
	// Stay up across three ticks of the batch policy's 50ms fsync pacer,
	// so the race detector sees it run against the journal the re-arm
	// swapped in.
	time.Sleep(150 * time.Millisecond)
	if total == 0 {
		t.Fatal("no submits landed across the degrade cycle")
	}
	st := svc.Stats()
	if st.WALRearms == 0 {
		t.Fatalf("WALRearms = 0 after an observed ok->degraded->ok cycle")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close after a re-armed cycle: %v", err)
	}
}
