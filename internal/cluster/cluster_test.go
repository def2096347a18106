package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmament/internal/wal"
)

func testTopo() Topology {
	return Topology{Racks: 2, MachinesPerRack: 3, SlotsPerMachine: 4}
}

// drain returns a copy of the events DrainEvents hands over.
func drain(c *Cluster) []Event {
	var out []Event
	c.DrainEvents(func(ev []Event) { out = append(out, ev...) })
	return out
}

func TestNewClusterTopology(t *testing.T) {
	c := New(testTopo())
	if c.NumMachines() != 6 || c.NumRacks() != 2 {
		t.Fatalf("machines=%d racks=%d, want 6/2", c.NumMachines(), c.NumRacks())
	}
	if c.TotalSlots() != 24 {
		t.Fatalf("TotalSlots = %d, want 24", c.TotalSlots())
	}
	if got := c.RackOf(4); got != 1 {
		t.Fatalf("RackOf(4) = %d, want 1", got)
	}
	if len(c.RackMachines(0)) != 3 {
		t.Fatalf("rack 0 has %d machines, want 3", len(c.RackMachines(0)))
	}
	if c.Machine(0).NICBps != 10*1000*1000*1000/8 {
		t.Fatalf("default NIC = %d, want 10 Gb/s", c.Machine(0).NICBps)
	}
}

func TestTaskLifecycle(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Batch, 1, 10*time.Second, []TaskSpec{
		{Duration: 5 * time.Second},
		{Duration: 6 * time.Second},
	})
	if len(job.Tasks) != 2 || c.NumPending() != 2 {
		t.Fatalf("tasks=%d pending=%d, want 2/2", len(job.Tasks), c.NumPending())
	}
	ev := drain(c)
	if len(ev) != 2 || ev[0].Kind != EventTaskSubmitted {
		t.Fatalf("events = %+v, want 2 submissions", ev)
	}
	id := job.Tasks[0]
	if err := c.Place(id, 2, 11*time.Second); err != nil {
		t.Fatalf("Place: %v", err)
	}
	task := c.Task(id)
	if task.State != TaskRunning || task.Machine != 2 || task.StartTime != 11*time.Second {
		t.Fatalf("task after place: %+v", task)
	}
	if c.Machine(2).Running() != 1 || c.NumPending() != 1 {
		t.Fatal("machine/pending counts wrong after place")
	}
	if err := c.Place(id, 3, 0); err == nil {
		t.Fatal("double place succeeded")
	}
	if err := c.Complete(id, 16*time.Second); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if task.State != TaskCompleted || task.FinishTime != 16*time.Second || task.Machine != InvalidMachine {
		t.Fatalf("task after complete: %+v", task)
	}
	if c.JobDone(job.ID) {
		t.Fatal("job done with one task still pending")
	}
	ev = drain(c)
	if len(ev) != 1 || ev[0].Kind != EventTaskCompleted || ev[0].Machine != 2 {
		t.Fatalf("completion event = %+v", ev)
	}
}

func TestPlaceRespectsSlots(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 1})
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	if err := c.Place(job.Tasks[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(job.Tasks[1], 0, 0); err == nil {
		t.Fatal("overcommitted slot accepted")
	}
}

func TestPreemptReturnsToPending(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Service, 9, 0, []TaskSpec{{NetDemand: 100}})
	id := job.Tasks[0]
	if err := c.Place(id, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Machine(0).ReservedBandwidth(); got != 100 {
		t.Fatalf("reserved = %d, want 100", got)
	}
	if err := c.Preempt(id, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	task := c.Task(id)
	if task.State != TaskPending || task.Preemptions != 1 || task.Machine != InvalidMachine {
		t.Fatalf("task after preempt: %+v", task)
	}
	if got := c.Machine(0).ReservedBandwidth(); got != 0 {
		t.Fatalf("reserved = %d after preempt, want 0", got)
	}
	c.DrainEvents(nil)
	if c.NumPending() != 1 {
		t.Fatal("task not back in pending queue")
	}
}

func TestRemoveMachineEvictsTasks(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	c.Place(job.Tasks[0], 1, 0)
	c.Place(job.Tasks[1], 1, 0)
	c.DrainEvents(nil)
	c.RemoveMachine(1, time.Minute)
	if c.Machine(1).Healthy() {
		t.Fatal("machine still healthy")
	}
	if c.NumPending() != 2 || c.NumRunning() != 0 {
		t.Fatalf("pending=%d running=%d, want 2/0", c.NumPending(), c.NumRunning())
	}
	ev := drain(c)
	evictions, removals := 0, 0
	for _, e := range ev {
		switch e.Kind {
		case EventTaskEvicted:
			evictions++
		case EventMachineRemoved:
			removals++
		}
	}
	if evictions != 2 || removals != 1 {
		t.Fatalf("evictions=%d removals=%d, want 2/1", evictions, removals)
	}
	if err := c.Place(job.Tasks[0], 1, 0); err == nil {
		t.Fatal("placed task on unhealthy machine")
	}
	if c.TotalSlots() != 20 {
		t.Fatalf("TotalSlots = %d after removal, want 20", c.TotalSlots())
	}
	c.RestoreMachine(1, 2*time.Minute)
	if !c.Machine(1).Healthy() || c.TotalSlots() != 24 {
		t.Fatal("restore failed")
	}
}

func TestSlotUtilization(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	c.Place(job.Tasks[0], 0, 0)
	if u := c.SlotUtilization(); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	c.Place(job.Tasks[1], 1, 0)
	if u := c.SlotUtilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestJobDone(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	c.Place(job.Tasks[0], 0, 0)
	c.Place(job.Tasks[1], 1, 0)
	c.Complete(job.Tasks[0], time.Second)
	if c.JobDone(job.ID) {
		t.Fatal("JobDone early")
	}
	c.Complete(job.Tasks[1], 2*time.Second)
	if !c.JobDone(job.ID) {
		t.Fatal("JobDone not reported")
	}
}

// TestShardedIDAllocation pins the composite task-ID scheme: a task's job
// is derived from the high bits of its ID, IDs are unique, and sorting the
// IDs of a sequentially submitted workload reproduces submission order.
func TestShardedIDAllocation(t *testing.T) {
	c := New(testTopo())
	var inOrder []TaskID
	for j := 0; j < 10; j++ {
		job := c.SubmitJob(Batch, 0, 0, make([]TaskSpec, 7))
		if job.ID != JobID(j) {
			t.Fatalf("job ID %d, want %d", job.ID, j)
		}
		for i, id := range job.Tasks {
			if JobOfTask(id) != job.ID {
				t.Fatalf("JobOfTask(%d) = %d, want %d", id, JobOfTask(id), job.ID)
			}
			task := c.Task(id)
			if task == nil || task.Job != job.ID || task.Index != i {
				t.Fatalf("task %d resolves to %+v", id, task)
			}
		}
		inOrder = append(inOrder, job.Tasks...)
	}
	seen := make(map[TaskID]bool, len(inOrder))
	for i, id := range inOrder {
		if seen[id] {
			t.Fatalf("duplicate task ID %d", id)
		}
		seen[id] = true
		if i > 0 && id <= inOrder[i-1] {
			t.Fatalf("sequential submission order not ID order: %d after %d", id, inOrder[i-1])
		}
	}
}

// TestDrainEvents checks the swap drain: every event is seen exactly once
// and in append order, the table lock is not held during the callback (the
// callback can take it), and the drained buffer is recycled for the next
// journal.
func TestDrainEvents(t *testing.T) {
	c := New(testTopo())
	var want []Event
	for j := 0; j < 6; j++ {
		job := c.SubmitJob(Batch, 0, time.Duration(j), make([]TaskSpec, 3))
		for _, id := range job.Tasks {
			want = append(want, Event{Kind: EventTaskSubmitted, Task: id, Time: time.Duration(j)})
		}
	}
	c.RemoveMachine(5, time.Minute)
	want = append(want, Event{Kind: EventMachineRemoved, Machine: 5, Time: time.Minute})
	if got := c.NumQueuedEvents(); got != len(want) {
		t.Fatalf("NumQueuedEvents = %d, want %d", got, len(want))
	}

	calls := 0
	var buf []Event
	c.DrainEvents(func(ev []Event) {
		calls++
		buf = ev
		c.PendingTasks() // takes the table lock: would deadlock if held
		if !slices.Equal(ev, want) {
			t.Fatalf("drained %+v, want %+v", ev, want)
		}
	})
	if calls != 1 {
		t.Fatalf("drain called fn %d times, want 1", calls)
	}
	if got := c.NumQueuedEvents(); got != 0 {
		t.Fatalf("NumQueuedEvents = %d after drain, want 0", got)
	}
	c.DrainEvents(func([]Event) { t.Fatal("fn called on an empty journal") })

	// The buffers alternate between the journal and the drain: a later
	// journal is written into the buffer just drained, and every drain
	// still sees every event.
	recycled := false
	for i, want := range []int{5, 4} {
		c.SubmitJob(Batch, 0, time.Hour, make([]TaskSpec, want))
		total := 0
		c.DrainEvents(func(ev []Event) {
			total += len(ev)
			recycled = recycled || &ev[0] == &buf[0]
		})
		if total != want {
			t.Fatalf("drain %d saw %d events, want %d", i+2, total, want)
		}
	}
	if !recycled {
		t.Fatal("the drained buffer was never reused for a journal")
	}
}

// TestAggregateCounters checks the lock-free aggregates against the table
// state through a lifecycle that touches every transition.
func TestAggregateCounters(t *testing.T) {
	c := New(testTopo())
	if c.TotalSlots() != 24 || c.NumPending() != 0 {
		t.Fatalf("fresh cluster: slots=%d pending=%d", c.TotalSlots(), c.NumPending())
	}
	job := c.SubmitJob(Batch, 0, 0, make([]TaskSpec, 4))
	if c.NumPending() != 4 || c.NumQueuedEvents() != 4 {
		t.Fatalf("after submit: pending=%d events=%d", c.NumPending(), c.NumQueuedEvents())
	}
	c.Place(job.Tasks[0], 0, 0)
	c.Place(job.Tasks[1], 1, 0)
	if c.NumPending() != 2 {
		t.Fatalf("after 2 places: pending=%d", c.NumPending())
	}
	c.Preempt(job.Tasks[0], time.Second)
	if c.NumPending() != 3 {
		t.Fatalf("after preempt: pending=%d", c.NumPending())
	}
	c.Complete(job.Tasks[1], time.Second)
	if c.NumPending() != 3 {
		t.Fatalf("after complete: pending=%d", c.NumPending())
	}
	c.RemoveMachine(0, 2*time.Second)
	if c.TotalSlots() != 20 {
		t.Fatalf("after machine removal: slots=%d", c.TotalSlots())
	}
	c.RestoreMachine(0, 3*time.Second)
	if c.TotalSlots() != 24 {
		t.Fatalf("after machine restore: slots=%d", c.TotalSlots())
	}
	// The whole history drains, and the drain zeroes the counter.
	want := c.NumQueuedEvents()
	if got := len(drain(c)); got != want {
		t.Fatalf("drained %d events, counter said %d", got, want)
	}
	if c.NumQueuedEvents() != 0 {
		t.Fatalf("drain left counter at %d", c.NumQueuedEvents())
	}
}

// TestConcurrentSubmission hammers the cluster's front door from many
// goroutines while a consumer drains events, places, completes and
// toggles machines, and readers walk Machines, NumRunning and
// EncodeSnapshot, mirroring the serving layer's access pattern. Run under
// -race.
func TestConcurrentSubmission(t *testing.T) {
	c := New(Topology{Racks: 2, MachinesPerRack: 8, SlotsPerMachine: 4})
	const submitters = 8
	const jobsEach = 50
	const tasksPerJob = 4

	var wg, subWG sync.WaitGroup
	var drained atomic.Int64
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	wg.Add(1)
	go func() { // consumer: drain events and mutate state like a scheduler
		defer wg.Done()
		var running []TaskID
		for round := 0; ; round++ {
			done := stopped()
			for _, ev := range drain(c) {
				if ev.Kind == EventTaskSubmitted {
					drained.Add(1)
				}
				if ev.Kind == EventTaskSubmitted || ev.Kind == EventTaskEvicted {
					m := MachineID((round + int(ev.Task)) % c.NumMachines())
					if c.Place(ev.Task, m, 0) == nil {
						running = append(running, ev.Task)
					}
				}
			}
			if done {
				return
			}
			half := len(running) / 2
			for _, id := range running[:half] {
				c.Complete(id, 0) // evicted ones refuse
			}
			running = append(running[:0], running[half:]...)
			if m := MachineID(round % c.NumMachines()); c.RemoveMachine(m, 0) != nil {
				c.RestoreMachine(m, 0)
			}
			c.NumPending()
			c.SlotUtilization()
		}
	}()
	// Readers: every view of machine occupancy is one state of the table
	// lock, so no machine is ever seen over its slots or both removed and
	// running tasks, live or in a snapshot.
	checkMachines := func(view string, cl *Cluster) {
		cl.Machines(func(m *Machine) {
			if m.Running() > m.Slots || (!m.Healthy() && m.Running() > 0) {
				t.Errorf("%s: machine %d healthy=%v runs %d tasks in %d slots", view, m.ID, m.Healthy(), m.Running(), m.Slots)
			}
		})
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stopped() {
				if r == 0 {
					checkMachines("live", c)
					if n := c.NumRunning(); n > c.NumMachines()*4 {
						t.Errorf("NumRunning = %d over %d slots", n, c.NumMachines()*4)
					}
					continue
				}
				var e wal.Enc
				c.EncodeSnapshot(&e)
				snap, err := DecodeSnapshot(wal.NewDec(e.B))
				if err != nil {
					t.Errorf("DecodeSnapshot of a concurrent snapshot: %v", err)
					return
				}
				checkMachines("snapshot", snap)
			}
		}(r)
	}

	ids := make([][]TaskID, submitters)
	for i := 0; i < submitters; i++ {
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			for j := 0; j < jobsEach; j++ {
				job := c.SubmitJob(Batch, 0, time.Duration(j), make([]TaskSpec, tasksPerJob))
				ids[i] = append(ids[i], job.Tasks...)
			}
		}(i)
	}
	// Stop the consumer only after every submission is in, so its final
	// drain observes all events.
	subWG.Wait()
	close(stop)
	wg.Wait()

	total := submitters * jobsEach * tasksPerJob
	if got := int(drained.Load()); got != total {
		t.Fatalf("drained %d submission events, want %d (lost or duplicated submissions)", got, total)
	}
	// Every task ID must be unique across submitters.
	seen := make(map[TaskID]bool, total)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("task ID %d handed to two submitters", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("unique task IDs = %d, want %d", len(seen), total)
	}
}

// TestUnknownIDAccessors probes every accessor and mutator with IDs the
// cluster has never issued — exactly what a remote front door can relay
// from a buggy or malicious client. None may panic; lookups answer with
// their zero result and mutators reject or no-op.
func TestUnknownIDAccessors(t *testing.T) {
	c := New(testTopo()) // 6 machines, jobs 0..n as submitted
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})

	t.Run("lookups", func(t *testing.T) {
		cases := []struct {
			name string
			got  any
			want any
		}{
			{"Job(unknown)", c.Job(9999) == nil, true},
			{"Job(negative)", c.Job(-7) == nil, true},
			{"Task(unknown job)", c.Task(taskID(9999, 0)) == nil, true},
			{"Task(unknown index)", c.Task(taskID(job.ID, 99)) == nil, true},
			{"Task(negative)", c.Task(-1) == nil, true},
			{"JobDone(unknown)", c.JobDone(4242), false},
			{"JobDone(negative)", c.JobDone(-1), false},
			{"JobDone(known, unfinished)", c.JobDone(job.ID), false},
			{"Machine(out of range)", c.Machine(MachineID(c.NumMachines())) == nil, true},
			{"Machine(negative)", c.Machine(-3) == nil, true},
			{"RackOf(unknown)", c.RackOf(999), RackID(-1)},
			{"RackMachines(unknown)", c.RackMachines(99) == nil, true},
			{"RackMachines(negative)", c.RackMachines(-1) == nil, true},
		}
		for _, tc := range cases {
			if tc.got != tc.want {
				t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
			}
		}
	})

	t.Run("mutators", func(t *testing.T) {
		if err := c.Place(taskID(555, 3), 0, 0); err == nil {
			t.Error("Place of unknown task succeeded")
		}
		if err := c.Complete(taskID(555, 3), 0); err == nil {
			t.Error("Complete of unknown task succeeded")
		}
		if err := c.Preempt(-42, 0); err == nil {
			t.Error("Preempt of unknown task succeeded")
		}
		// Out-of-range machine ops must no-op, not panic, and must not
		// disturb the healthy-slot aggregate.
		slots := c.TotalSlots()
		c.RemoveMachine(MachineID(c.NumMachines()), 0)
		c.RemoveMachine(-1, 0)
		c.RestoreMachine(9999, 0)
		if c.TotalSlots() != slots {
			t.Errorf("TotalSlots = %d after unknown-machine ops, want %d", c.TotalSlots(), slots)
		}
	})
}

// TestRetireDone checks retirement: finished jobs leave the tables with
// their tasks, unfinished jobs stay, and the tally still counts every task
// ever submitted.
func TestRetireDone(t *testing.T) {
	c := New(testTopo())
	a := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	b := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}})
	live := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	empty := c.SubmitJob(Batch, 0, 0, nil)
	for i, id := range []TaskID{a.Tasks[0], a.Tasks[1], b.Tasks[0], live.Tasks[0]} {
		if err := c.Place(id, MachineID(i), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []TaskID{a.Tasks[0], a.Tasks[1], b.Tasks[0], live.Tasks[0]} {
		if err := c.Complete(id, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	if n := c.RetireDone(); n != 3 {
		t.Fatalf("RetireDone retired %d jobs, want 3 (a, b and the empty job)", n)
	}
	for _, id := range []JobID{a.ID, b.ID, empty.ID} {
		if c.Job(id) != nil || c.JobDone(id) {
			t.Fatalf("job %d still known after retirement", id)
		}
	}
	if c.Task(a.Tasks[0]) != nil || c.Task(a.Tasks[1]) != nil || c.Task(b.Tasks[0]) != nil {
		t.Fatal("retired job's tasks still in the tables")
	}
	if err := c.Complete(a.Tasks[0], 3*time.Second); err == nil {
		t.Fatal("Complete of a retired task succeeded")
	}
	if c.Job(live.ID) == nil || c.Task(live.Tasks[0]) == nil {
		t.Fatal("an unfinished job was retired")
	}
	if jobs, tasks := c.Retired(); jobs != 3 || tasks != 3 {
		t.Fatalf("Retired = (%d, %d), want (3, 3)", jobs, tasks)
	}
	if p, r, done, f := c.CountStates(); p != 1 || r != 0 || done != 4 || f != 0 {
		t.Fatalf("CountStates = (%d, %d, %d, %d), want (1, 0, 4, 0)", p, r, done, f)
	}

	// Nothing else is left to do.
	if n := c.RetireDone(); n != 0 {
		t.Fatalf("second RetireDone retired %d jobs, want 0", n)
	}
	if p, r, done, f := c.CountStates(); p+r+done+f != 5 {
		t.Fatalf("CountStates = (%d, %d, %d, %d): %d tasks, want the 5 submitted", p, r, done, f, p+r+done+f)
	}
}
