package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
)

func newTestService(t *testing.T, topo cluster.Topology, cfg Config) (*Service, *cluster.Cluster) {
	t.Helper()
	if cfg.RoundInterval == 0 {
		cfg.RoundInterval = 200 * time.Microsecond
	}
	cl := cluster.New(topo)
	svc := New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(), cfg)
	t.Cleanup(func() { svc.Close() })
	return svc, cl
}

// drainUntil receives from events until pred returns true or the deadline
// passes.
func drainUntil(t *testing.T, events <-chan Placement, d time.Duration, pred func(Placement) bool) {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case p, ok := <-events:
			if !ok {
				t.Fatal("placement channel closed early")
			}
			if pred(p) {
				return
			}
		case <-deadline:
			t.Fatal("timed out waiting for placements")
		}
	}
}

func TestServicePlacesSubmittedJob(t *testing.T) {
	svc, _ := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 4}, Config{})
	events, cancel := svc.Watch()
	defer cancel()

	const tasks = 8
	job, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, tasks))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	placed := make(map[cluster.TaskID]bool)
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind != core.DecisionPlaced {
			return false
		}
		if p.Job != job.ID {
			t.Fatalf("placement for unknown job %d", p.Job)
		}
		if p.Latency <= 0 {
			t.Fatalf("placement latency %v not positive", p.Latency)
		}
		placed[p.Task] = true
		return len(placed) == tasks
	})

	st := svc.Stats()
	if st.Placed != tasks || st.Submitted != tasks {
		t.Fatalf("stats: placed %d submitted %d, want %d", st.Placed, st.Submitted, tasks)
	}
	if st.Rounds == 0 || st.PlacementLatency.N() != tasks {
		t.Fatalf("stats: rounds %d latency samples %d", st.Rounds, st.PlacementLatency.N())
	}
}

// TestConcurrentSubmitters is the serving-layer stress test: N goroutines
// submit and complete jobs in a closed loop while the scheduling loop runs.
// No submission may be lost, no task may be placed twice without an
// intervening eviction, and shutdown must be clean. Run under -race.
func TestConcurrentSubmitters(t *testing.T) {
	const (
		submitters  = 8
		jobsEach    = 5
		tasksPerJob = 20
		total       = submitters * jobsEach * tasksPerJob
	)
	svc, cl := newTestService(t,
		cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 4}, Config{})

	// A dedicated accountant subscriber records every task's lifecycle
	// until Close tears its channel down.
	placedCount := make(map[cluster.TaskID]int)
	evictedCount := make(map[cluster.TaskID]int)
	acctEvents, acctCancel := svc.Watch()
	defer acctCancel()
	acctDone := make(chan struct{})
	go func() {
		defer close(acctDone)
		for p := range acctEvents {
			switch p.Kind {
			case core.DecisionPlaced:
				placedCount[p.Task]++
			case core.DecisionPreempted:
				evictedCount[p.Task]++
			}
		}
	}()

	// A poller reads Stats while the loop publishes: under -race this
	// exercises the published counters, and a snapshot must never run
	// backwards or count a completion before its placement. Its
	// distributions belong to the same round as its counters: one latency
	// sample per placement, one batch size per round.
	pollStop, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		var last Stats
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			st := svc.Stats()
			if st.Rounds < last.Rounds || st.Completed < last.Completed || st.Completed > st.Placed {
				t.Errorf("stats poll went backwards or out of order: %+v after %+v", st.Counters, last.Counters)
				return
			}
			if int64(st.PlacementLatency.N()) != st.Placed || int64(st.BatchSize.N()) != st.Rounds {
				t.Errorf("stats poll mixes rounds: %d latency samples for %d placed, %d batch sizes for %d rounds",
					st.PlacementLatency.N(), st.Placed, st.BatchSize.N(), st.Rounds)
				return
			}
			last = st
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events, cancel := svc.Watch()
			defer cancel()
			for j := 0; j < jobsEach; j++ {
				job, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, tasksPerJob))
				if err != nil {
					errCh <- err
					return
				}
				mine := make(map[cluster.TaskID]bool, tasksPerJob)
				for _, id := range job.Tasks {
					mine[id] = true
				}
				done := make(map[cluster.TaskID]bool, tasksPerJob)
				deadline := time.After(30 * time.Second)
				for len(done) < tasksPerJob {
					select {
					case p, ok := <-events:
						if !ok {
							errCh <- errors.New("watch channel closed mid-run")
							return
						}
						if !mine[p.Task] || p.Kind != core.DecisionPlaced {
							continue
						}
						// Closed loop: complete as soon as placed (repeat
						// placements after a preemption are re-completed).
						if err := svc.Complete(p.Task); err != nil {
							errCh <- err
							return
						}
						done[p.Task] = true
					case <-deadline:
						errCh <- errors.New("submitter timed out waiting for placements")
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(pollStop)
	<-pollDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Wait for the queued completions to be enacted.
	waitDeadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Completed < total {
		if time.Now().After(waitDeadline) {
			t.Fatalf("completed %d of %d tasks before timeout", svc.Stats().Completed, total)
		}
		time.Sleep(time.Millisecond)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-acctDone // accountant drains its channel until Close closes it

	st := svc.Stats()
	if st.Submitted != total {
		t.Fatalf("submitted %d, want %d", st.Submitted, total)
	}
	if st.Completed != total {
		t.Fatalf("completed %d, want %d", st.Completed, total)
	}
	if st.WatchDropped != 0 {
		t.Fatalf("%d placement events dropped (buffer too small for test load)", st.WatchDropped)
	}
	// No lost events: every submitted task was placed at least once, and
	// no task was placed twice without an intervening eviction.
	if len(placedCount) != total {
		t.Fatalf("accountant saw %d distinct tasks placed, want %d", len(placedCount), total)
	}
	for id, n := range placedCount {
		if n != 1+evictedCount[id] {
			t.Fatalf("task %d placed %d times with %d evictions (double placement)",
				id, n, evictedCount[id])
		}
	}
	// The cluster must agree: everything completed, nothing left running
	// or pending. (The loop is stopped; direct field reads are safe.)
	if cl.NumPending() != 0 || cl.NumRunning() != 0 {
		t.Fatalf("cluster left with %d pending, %d running", cl.NumPending(), cl.NumRunning())
	}
}

func TestServiceMachineRemoval(t *testing.T) {
	svc, cl := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 3, SlotsPerMachine: 2}, Config{})
	events, cancel := svc.Watch()
	defer cancel()

	const tasks = 4
	job, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, tasks))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_ = job
	placedOn := make(map[cluster.TaskID]cluster.MachineID)
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced {
			placedOn[p.Task] = p.Machine
		}
		return len(placedOn) == tasks
	})

	// An out-of-range machine must be rejected at the front door, not
	// panic the scheduling loop.
	if err := svc.RemoveMachine(999); err == nil {
		t.Fatal("RemoveMachine(999) accepted an unknown machine")
	}
	if err := svc.RestoreMachine(-1); err == nil {
		t.Fatal("RestoreMachine(-1) accepted an unknown machine")
	}

	// Fail a machine that is running at least one task.
	var victim cluster.MachineID = -1
	for _, m := range placedOn {
		victim = m
		break
	}
	if err := svc.RemoveMachine(victim); err != nil {
		t.Fatalf("RemoveMachine: %v", err)
	}
	// Every task that was on the victim must be re-placed elsewhere.
	wantReplaced := make(map[cluster.TaskID]bool)
	for id, m := range placedOn {
		if m == victim {
			wantReplaced[id] = true
		}
	}
	if len(wantReplaced) == 0 {
		t.Fatal("victim machine ran no tasks")
	}
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced && wantReplaced[p.Task] {
			if p.Machine == victim {
				t.Fatalf("task %d re-placed on removed machine %d", p.Task, victim)
			}
			delete(wantReplaced, p.Task)
		}
		return len(wantReplaced) == 0
	})
	_ = cl
}

// fillBacklog submits jobs until Submit refuses with ErrBacklogged,
// returning how many tasks were accepted. Fails the test if the front door
// never pushes back.
func fillBacklog(t *testing.T, svc *Service, tasksPerJob int) int {
	t.Helper()
	accepted := 0
	for i := 0; i < 10000; i++ {
		_, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, tasksPerJob))
		if errors.Is(err, ErrBacklogged) {
			return accepted
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		accepted += tasksPerJob
	}
	t.Fatal("Submit never returned ErrBacklogged")
	return 0
}

// TestSubmitBackpressure drives the front door into the configured backlog
// ceiling and checks that Submit sheds with ErrBacklogged, that SubmitWait
// parks until the scheduler drains the backlog, and that the refusals are
// counted.
func TestSubmitBackpressure(t *testing.T) {
	// One machine, two slots, ceiling at 2x slots: tiny enough to fill
	// instantly. Tasks never complete on their own (the test completes
	// them), so the backlog only drains when we let it.
	svc, _ := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 2},
		Config{MaxPendingFactor: 2})
	events, cancel := svc.Watch()
	defer cancel()

	// Saturate both slots first so nothing the backlog fill submits can be
	// placed — pending can only grow until the completer starts.
	if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var saturators []cluster.TaskID
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced {
			saturators = append(saturators, p.Task)
		}
		return len(saturators) == 2
	})

	accepted := fillBacklog(t, svc, 2)
	if accepted < 4 {
		// 2 slots x factor 2: at least the ceiling's worth must be let in.
		t.Fatalf("only %d tasks accepted before backpressure", accepted)
	}
	if st := svc.Stats(); st.Backlogged == 0 {
		t.Fatal("refused submission not counted in Stats.Backlogged")
	}

	// SubmitWait must park while backlogged, then get through once the
	// completer below drains the cluster.
	waitDone := make(chan error, 1)
	go func() {
		_, err := svc.SubmitWait(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		waitDone <- err
	}()
	select {
	case err := <-waitDone:
		t.Fatalf("SubmitWait returned %v while backlogged", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Closed loop: release the slot-saturating tasks, then complete
	// everything else as it is placed; the backlog drains, SubmitWait's
	// job gets in and placed, and its task is completed like the rest.
	for _, id := range saturators {
		if err := svc.Complete(id); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	go func() {
		for p := range events {
			if p.Kind == core.DecisionPlaced {
				svc.Complete(p.Task)
			}
		}
	}()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("SubmitWait after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SubmitWait still parked after the backlog drained")
	}
}

// TestSubmitWaitUnblocksOnClose parks a SubmitWait caller on a saturated
// service and checks Close hands it ErrClosed instead of stranding it.
func TestSubmitWaitUnblocksOnClose(t *testing.T) {
	svc, _ := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 2},
		Config{MaxPendingFactor: 1})
	events, cancel := svc.Watch()
	defer cancel()
	if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	running := 0
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced {
			running++
		}
		return running == 2
	})
	fillBacklog(t, svc, 2)

	waitDone := make(chan error, 1)
	go func() {
		_, err := svc.SubmitWait(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		waitDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-waitDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("SubmitWait after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWait not unblocked by Close")
	}
}

// TestWatchChurn exercises the subscriber lifecycle under churn: many
// goroutines subscribe, read, and cancel while the loop publishes, a job
// feeder keeps decisions flowing, and the service closes mid-churn. Every
// post-Close subscribe must hand back a closed channel, cancel must stay
// safe after Close (including double cancel), and nothing may deadlock.
// Run under -race.
func TestWatchChurn(t *testing.T) {
	svc, _ := newTestService(t,
		cluster.Topology{Racks: 2, MachinesPerRack: 8, SlotsPerMachine: 4}, Config{})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Feeder: closed-loop submissions so publications keep flowing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		events, cancel := svc.Watch()
		defer cancel()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 4)); err != nil {
				return // closed mid-churn
			}
			// Complete a few placements to keep slots free.
			for i := 0; i < 4; i++ {
				select {
				case p, ok := <-events:
					if !ok {
						return
					}
					if p.Kind == core.DecisionPlaced {
						svc.Complete(p.Task)
					}
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
	}()

	// Churners: subscribe, read a little, cancel — some twice, some after
	// Close.
	const churners = 8
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				events, cancel := svc.Watch()
				// Read a few events (or give up quickly if closed/quiet).
				for j := 0; j < 3; j++ {
					select {
					case _, ok := <-events:
						if !ok {
							j = 3 // channel closed by Close
						}
					case <-time.After(time.Millisecond):
					}
				}
				cancel()
				if round%3 == i%3 {
					cancel() // double cancel must be a no-op
				}
			}
		}(i)
	}

	// Let the churn run, then close the service in the middle of it.
	time.Sleep(100 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close mid-churn: %v", err)
	}

	// Churners must still be able to subscribe and cancel after Close.
	events, cancel := svc.Watch()
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("post-Close subscription delivered an event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-Close subscription channel not closed")
	}
	cancel()
	cancel() // cancel-after-Close, twice

	time.Sleep(50 * time.Millisecond) // let churners hit the post-Close paths too
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("churn goroutines failed to exit")
	}
}

func TestServiceCloseSemantics(t *testing.T) {
	svc, _ := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, Config{})
	events, cancel := svc.Watch()
	defer cancel()

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := svc.Complete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Complete after Close: err = %v, want ErrClosed", err)
	}
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("unexpected placement after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel not closed by Close")
	}
}

// countJobs snapshots the number of jobs registered in the cluster tables.
func countJobs(cl *cluster.Cluster) int {
	n := 0
	cl.Jobs(func(*cluster.Job) { n++ })
	return n
}

// TestSubmitCloseRace pins the front-door/Close race deterministically: a
// submitter that has passed Submit's entry check but not yet registered its
// job must observe a concurrent Close and return ErrClosed — never register
// the job in the cluster after the loop exited and hand back a handle that
// will never be scheduled.
func TestSubmitCloseRace(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	svc := New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(),
		Config{RoundInterval: 200 * time.Microsecond})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookSubmit = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	got := make(chan error, 1)
	go func() {
		_, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 4))
		got <- err
	}()

	<-entered // the submitter is past the entry check, about to register
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(release) // now let the submitter try to register

	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit that raced Close returned %v, want ErrClosed", err)
	}
	if n := countJobs(cl); n != 0 {
		t.Fatalf("%d job(s) registered in the cluster after Close", n)
	}
	if cl.NumPending() != 0 || cl.NumQueuedEvents() != 0 {
		t.Fatalf("post-Close cluster state: %d pending, %d queued events, want 0/0",
			cl.NumPending(), cl.NumQueuedEvents())
	}
}

// TestSubmitCloseRaceStress hammers Submit from several goroutines while
// Close lands, and checks the invariant the deterministic test pins: the
// cluster's job tables must not grow after Close has returned.
func TestSubmitCloseRaceStress(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 8})
		svc := New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(),
			Config{RoundInterval: 100 * time.Microsecond})

		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
						return // ErrClosed ends the loop
					}
				}
			}()
		}
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		if err := svc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		atClose := countJobs(cl)
		wg.Wait()
		if after := countJobs(cl); after != atClose {
			t.Fatalf("iteration %d: job table grew from %d to %d after Close returned",
				iter, atClose, after)
		}
	}
}

// TestSubmitWaitBackloggedCountedOnce parks one SubmitWait caller on a
// saturated service and lets the scheduling loop broadcast many wakeups
// while the backlog persists: the blocked call must count exactly once in
// Stats.Backlogged, not once per wakeup re-check.
func TestSubmitWaitBackloggedCountedOnce(t *testing.T) {
	svc, _ := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 2},
		Config{MaxPendingFactor: 2})
	events, cancel := svc.Watch()
	defer cancel()

	// Saturate both slots so nothing further can be placed.
	if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	running := 0
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced {
			running++
		}
		return running == 2
	})
	fillBacklog(t, svc, 2)
	base := svc.Stats().Backlogged

	waitDone := make(chan error, 1)
	go func() {
		_, err := svc.SubmitWait(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		waitDone <- err
	}()
	// Wait until the blocked call has registered as one delayed admission.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Backlogged < base+1 {
		if time.Now().After(deadline) {
			t.Fatal("parked SubmitWait never counted in Stats.Backlogged")
		}
		time.Sleep(time.Millisecond)
	}
	// The loop keeps re-solving the saturated cluster (idle backoff capped
	// at idleInterval, 100ms) and broadcasts after every round, so the
	// parked caller re-checks the backlog several times during this window.
	time.Sleep(350 * time.Millisecond)
	select {
	case err := <-waitDone:
		t.Fatalf("SubmitWait returned %v while still backlogged", err)
	default:
	}
	if got := svc.Stats().Backlogged; got != base+1 {
		t.Fatalf("Stats.Backlogged = %d after wakeup re-checks, want %d (one per blocked call)",
			got, base+1)
	}
}

// TestRoundProgressCountsWindowEvents drives rounds by hand on a loopless
// service: a submission that lands in the window between the round's op
// drain and the graph update's event drain is folded into that round, so
// the round must report progress — the pre-fix queue-depth read taken
// before the drain missed such events and triggered exponential backoff
// while work was actually done.
func TestRoundProgressCountsWindowEvents(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 1})
	svc := newService(cl, policy.NewLoadSpread(cl), core.DefaultConfig(), Config{})

	if _, err := svc.submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	progress, err := svc.runRound()
	if err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if !progress {
		t.Fatal("round that placed a task reported no progress")
	}

	// The cluster's only slot is now occupied. Land a second submission in
	// the drain window: it cannot be placed, so the round enacts no
	// decisions — progress must come from the folded-in event itself.
	svc.testHookBeforeSchedule = func() {
		svc.testHookBeforeSchedule = nil
		if _, err := svc.submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
			t.Errorf("in-window submit: %v", err)
		}
	}
	progress, err = svc.runRound()
	if err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if !progress {
		t.Fatal("round that folded in a drain-window submission reported no progress")
	}

	// With nothing new, the next round really is idle: backoff may engage.
	progress, err = svc.runRound()
	if err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if progress {
		t.Fatal("round with no events and no decisions reported progress")
	}
}

// TestSubmitWaitCtxCanceled parks a context-bounded SubmitWait on a
// saturated service and cancels the context: the call must return promptly
// with the context's error and never submit the job — the network front
// door relies on this to release handlers whose clients hung up.
func TestSubmitWaitCtxCanceled(t *testing.T) {
	svc, cl := newTestService(t, cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 2},
		Config{MaxPendingFactor: 1})
	events, cancelWatch := svc.Watch()
	defer cancelWatch()
	if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	running := 0
	drainUntil(t, events, 10*time.Second, func(p Placement) bool {
		if p.Kind == core.DecisionPlaced {
			running++
		}
		return running == 2
	})
	fillBacklog(t, svc, 2)
	pendingBefore := cl.NumPending()

	ctx, cancel := context.WithCancel(context.Background())
	waitDone := make(chan error, 1)
	go func() {
		_, err := svc.SubmitWaitCtx(ctx, cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		waitDone <- err
	}()
	select {
	case err := <-waitDone:
		t.Fatalf("SubmitWaitCtx returned %v while backlogged", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-waitDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("SubmitWaitCtx after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWaitCtx not released by context cancellation")
	}
	if got := cl.NumPending(); got != pendingBefore {
		t.Fatalf("canceled SubmitWaitCtx changed pending from %d to %d", pendingBefore, got)
	}
}

// TestStatsNeverShowHalfARound polls Stats between a round's op drain and
// its solve. The counters and distributions the loop writes must still
// read as the previous round left them — the drained completion is not yet
// counted, nor is the round itself — and both must advance once the round
// ends.
func TestStatsNeverShowHalfARound(t *testing.T) {
	var clock time.Duration
	svc := manualService(cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 1}, &clock)
	job, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock = time.Millisecond
	if _, err := svc.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	before := svc.Stats()
	if before.Rounds != 1 || before.Placed != 1 {
		t.Fatalf("after the first round: rounds %d placed %d, want 1 and 1", before.Rounds, before.Placed)
	}

	if err := svc.Complete(job.Tasks[0]); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	var mid Stats
	svc.testHookBeforeSchedule = func() { mid = svc.Stats() }
	clock = 2 * time.Millisecond
	if _, err := svc.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if mid.Completed != before.Completed || mid.Rounds != before.Rounds {
		t.Fatalf("mid-round poll saw completed %d rounds %d, want the previous round's %d and %d",
			mid.Completed, mid.Rounds, before.Completed, before.Rounds)
	}
	if mid.BatchSize.N() != before.BatchSize.N() || mid.RoundTime.N() != before.RoundTime.N() {
		t.Fatalf("mid-round poll saw %d batch sizes and %d round times, want the previous round's %d and %d",
			mid.BatchSize.N(), mid.RoundTime.N(), before.BatchSize.N(), before.RoundTime.N())
	}
	after := svc.Stats()
	if after.Completed != before.Completed+1 || after.Rounds != before.Rounds+1 {
		t.Fatalf("after the round: completed %d rounds %d, want %d and %d",
			after.Completed, after.Rounds, before.Completed+1, before.Rounds+1)
	}
}

// TestStatsCountARoundBeforeWatchSeesIt: a subscriber that has drained
// Watch to a round's last placement must find that round in Stats, without
// polling. The round is a snapshot round, whose cut reads the clock after
// the placements go out and before the round ends; the clock hook drains
// Watch there and reads Stats, as a fast subscriber would.
func TestStatsCountARoundBeforeWatchSeesIt(t *testing.T) {
	var clock time.Duration
	s, _ := manualDurable(t, t.TempDir(), &clock)
	events, cancel := s.Watch()
	defer cancel()
	for s.Stats().Rounds+1-s.lastSnapRound < s.dur.SnapshotEvery {
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}
	before := s.Stats()

	const tasks = 3
	job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, tasks))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	placed := 0
	var atLast *Stats
	s.testHookNow = func() time.Duration {
		for len(events) > 0 {
			if p := <-events; p.Kind == core.DecisionPlaced && p.Job == job.ID {
				if placed++; placed == tasks {
					st := s.Stats()
					atLast = &st
				}
			}
		}
		return clock
	}
	clock += time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatalf("runRound: %v", err)
	}
	if s.lastSnapRound != before.Rounds+1 {
		t.Fatalf("round %d cut no snapshot (last at %d); the test needs one", before.Rounds+1, s.lastSnapRound)
	}
	if atLast == nil {
		t.Fatalf("saw %d of %d placements inside the round", placed, tasks)
	}
	if atLast.Placed != before.Placed+tasks || atLast.Rounds != before.Rounds+1 {
		t.Fatalf("at the round's last placement: placed %d rounds %d, want %d and %d",
			atLast.Placed, atLast.Rounds, before.Placed+tasks, before.Rounds+1)
	}
}
