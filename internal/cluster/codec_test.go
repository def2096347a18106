package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"firmament/internal/wal"
)

// buildMessyCluster drives a cluster through a random lifecycle so the
// snapshot has pending, running and completed tasks, unhealthy machines,
// and undrained events.
func buildMessyCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New(Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 4})
	var running []TaskID
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(4)
		specs := make([]TaskSpec, n)
		for k := range specs {
			specs[k] = TaskSpec{
				Duration:  time.Duration(rng.Intn(1000)) * time.Millisecond,
				InputFile: int64(rng.Intn(10)) - 1,
				InputSize: rng.Int63n(1 << 20),
				NetDemand: rng.Int63n(1 << 16),
			}
		}
		j := c.SubmitJob(JobClass(rng.Intn(2)), rng.Intn(3), time.Duration(i)*time.Second, specs)
		for _, tid := range j.Tasks {
			if rng.Intn(3) == 0 {
				continue // leave pending
			}
			m := MachineID(rng.Intn(c.NumMachines()))
			if c.Place(tid, m, time.Duration(i)*time.Second+time.Millisecond) == nil {
				running = append(running, tid)
			}
		}
	}
	// Complete some, preempt some.
	for i, tid := range running {
		switch i % 3 {
		case 0:
			c.Complete(tid, 30*time.Second)
		case 1:
			c.Preempt(tid, 31*time.Second)
		}
	}
	c.RemoveMachine(2, 40*time.Second)
	c.RemoveMachine(7, 41*time.Second)
	c.RestoreMachine(2, 42*time.Second)
	return c
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := buildMessyCluster(t, seed)
		var e wal.Enc
		c.EncodeSnapshot(&e)
		d := wal.NewDec(e.B)
		c2, err := DecodeSnapshot(d)
		if err != nil {
			t.Fatalf("seed %d: DecodeSnapshot: %v", seed, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("seed %d: %d undecoded bytes", seed, d.Remaining())
		}
		if c.Fingerprint() != c2.Fingerprint() {
			t.Fatalf("seed %d: fingerprint mismatch after round trip", seed)
		}
		// Aggregates must be rebuilt, not just tables.
		if c.NumPending() != c2.NumPending() {
			t.Fatalf("pending %d != %d", c.NumPending(), c2.NumPending())
		}
		if c.NumRunning() != c2.NumRunning() {
			t.Fatalf("running %d != %d", c.NumRunning(), c2.NumRunning())
		}
		if c.TotalSlots() != c2.TotalSlots() {
			t.Fatalf("slots %d != %d", c.TotalSlots(), c2.TotalSlots())
		}
		if c.NumQueuedEvents() != c2.NumQueuedEvents() {
			t.Fatalf("events %d != %d", c.NumQueuedEvents(), c2.NumQueuedEvents())
		}
		p1, r1, d1, f1 := c.CountStates()
		p2, r2, d2, f2 := c2.CountStates()
		if p1 != p2 || r1 != r2 || d1 != d2 || f1 != f2 {
			t.Fatalf("state tally mismatch: (%d %d %d %d) != (%d %d %d %d)", p1, r1, d1, f1, p2, r2, d2, f2)
		}
		// The decoded cluster must keep working: place a pending task,
		// submit a new job (allocator must be past every restored ID).
		j := c2.SubmitJob(Batch, 0, time.Minute, []TaskSpec{{Duration: time.Second}})
		if got := c2.Job(j.ID); got == nil {
			t.Fatal("submit on decoded cluster lost the job")
		}
		c.Jobs(func(old *Job) {
			if old.ID == j.ID {
				t.Fatalf("decoded cluster reused live job ID %d", j.ID)
			}
		})
		// The event queue must carry over in order; c2 has one extra event
		// from the post-decode submit.
		ev1, ev2 := drain(c), drain(c2)
		if len(ev2) != len(ev1)+1 || !slices.Equal(ev2[:len(ev1)], ev1) {
			t.Fatalf("decoded queue %+v, want %+v plus one submission", ev2, ev1)
		}
	}
}

func TestSubmitJobWithIDReplay(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	// Replay-style: register under explicit IDs, out of order.
	c.SubmitJobWithID(5, Batch, 0, time.Second, []TaskSpec{{}})
	c.SubmitJobWithID(2, Service, 1, 2*time.Second, []TaskSpec{{}, {}})
	if c.Job(5) == nil || c.Job(2) == nil {
		t.Fatal("jobs not registered")
	}
	if got := c.Job(2).Tasks[1]; JobOfTask(got) != 2 {
		t.Fatalf("task %d not in job 2", got)
	}
	// Fresh allocation must not collide with the replayed IDs.
	j := c.SubmitJob(Batch, 0, 3*time.Second, []TaskSpec{{}})
	if j.ID <= 5 {
		t.Fatalf("fresh job ID %d collides with replayed range", j.ID)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: EventTaskSubmitted, Task: taskID(3, 7), Time: time.Second},
		{Kind: EventTaskCompleted, Task: taskID(1, 0), Machine: 4, Time: 2 * time.Second},
		{Kind: EventTaskEvicted, Task: taskID(2, 2), Machine: 1, Time: 3 * time.Second},
		{Kind: EventMachineRemoved, Machine: 9, Time: 4 * time.Second},
		{Kind: EventMachineAdded, Machine: 9, Time: 5 * time.Second},
	}
	var e wal.Enc
	for _, ev := range events {
		EncodeEvent(&e, ev)
	}
	d := wal.NewDec(e.B)
	for i, want := range events {
		if got := DecodeEvent(d); got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err %v remaining %d", d.Err(), d.Remaining())
	}
}

func TestMachineOpErrors(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 1})
	if err := c.RemoveMachine(99, 0); err == nil {
		t.Fatal("remove of unknown machine succeeded")
	}
	if err := c.RestoreMachine(0, 0); err == nil {
		t.Fatal("restore of healthy machine succeeded")
	}
	if err := c.RemoveMachine(0, 0); err != nil {
		t.Fatalf("first remove: %v", err)
	}
	if err := c.RemoveMachine(0, 0); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := c.RestoreMachine(0, 0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if slots := c.TotalSlots(); slots != 2 {
		t.Fatalf("slots after remove+restore = %d, want 2", slots)
	}
}

// TestSnapshotRetirement round-trips a cluster that has retired jobs and a
// finished job not yet retired: the retired totals survive, and the
// decoded cluster lists the finished job for its next RetireDone.
func TestSnapshotRetirement(t *testing.T) {
	c := buildMessyCluster(t, 1)
	finish := func(j *Job, at time.Duration) {
		t.Helper()
		for i, id := range j.Tasks {
			if err := c.Place(id, MachineID(i), at); err != nil {
				t.Fatal(err)
			}
			if err := c.Complete(id, at+time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	finish(c.SubmitJob(Service, 1, 45*time.Second, []TaskSpec{{}, {}}), 46*time.Second)
	c.RetireDone()
	retiredJobs, retiredTasks := c.Retired()
	if retiredJobs == 0 {
		t.Fatal("no job retired")
	}
	j := c.SubmitJob(Batch, 0, 50*time.Second, []TaskSpec{{}})
	finish(j, 51*time.Second)

	var e wal.Enc
	c.EncodeSnapshot(&e)
	c2, err := DecodeSnapshot(wal.NewDec(e.B))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != c2.Fingerprint() {
		t.Fatal("fingerprint mismatch after round trip")
	}
	if jobs, tasks := c2.Retired(); jobs != retiredJobs || tasks != retiredTasks {
		t.Fatalf("decoded Retired = (%d, %d), want (%d, %d)", jobs, tasks, retiredJobs, retiredTasks)
	}
	p, r, done, f := c.CountStates()
	if p2, r2, done2, f2 := c2.CountStates(); p2 != p || r2 != r || done2 != done || f2 != f {
		t.Fatalf("decoded CountStates (%d, %d, %d, %d), want (%d, %d, %d, %d)", p2, r2, done2, f2, p, r, done, f)
	}
	if n := c2.RetireDone(); n != 1 || c2.Job(j.ID) != nil {
		t.Fatalf("decoded RetireDone retired %d jobs, want the 1 finished since the last call", n)
	}
	if n := c.RetireDone(); n != 1 || c.Fingerprint() != c2.Fingerprint() {
		t.Fatal("the original and the decoded cluster diverge after retiring the same job")
	}
}

// encodeLegacy writes c in the layout of builds that split the tables into
// n sections by job ID: job j and its tasks' events in section j mod n, a
// machine's events in section id mod n, and section i carrying retired[i]
// as its retired totals. It also returns the section-ordered concatenation
// of the event queues, the order those builds drained them in.
func encodeLegacy(c *Cluster, n int, retired [][2]int64) ([]byte, []Event) {
	var e wal.Enc
	e.U32(snapVersion)
	e.I64(int64(c.topo.Racks))
	e.I64(int64(c.topo.MachinesPerRack))
	e.I64(int64(c.topo.SlotsPerMachine))
	e.I64(c.topo.NICBps)
	e.U32(uint32(n))
	e.I64(int64(c.nextJob.Load()))
	e.U32(uint32(len(c.machines)))
	for _, m := range c.machines {
		e.Bool(m.healthy)
	}
	queues := make([][]Event, n)
	for _, ev := range c.events {
		key := int64(JobOfTask(ev.Task))
		if ev.Kind == EventMachineAdded || ev.Kind == EventMachineRemoved {
			key = int64(ev.Machine)
		}
		queues[key%int64(n)] = append(queues[key%int64(n)], ev)
	}
	var order []Event
	for i := 0; i < n; i++ {
		var ids []JobID
		for id := range c.jobs {
			if int(id)%n == i {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		e.U32(uint32(len(ids)))
		for _, id := range ids {
			j := c.jobs[id]
			e.I64(int64(j.ID))
			e.U8(uint8(j.Class))
			e.I64(int64(j.Priority))
			e.Dur(j.SubmitTime)
			e.I64(int64(j.remaining))
			e.U32(uint32(len(j.Tasks)))
			for _, tid := range j.Tasks {
				encodeTask(&e, c.tasks[tid])
			}
		}
		e.I64(retired[i][0])
		e.I64(retired[i][1])
		e.U32(uint32(len(queues[i])))
		for _, ev := range queues[i] {
			EncodeEvent(&e, ev)
		}
		order = append(order, queues[i]...)
	}
	return e.B, order
}

// TestDecodeLegacySections decodes a 16-section snapshot, as builds that
// split the tables by job ID wrote them, into the one table: every job and
// task arrives, the retired totals are summed, and the event queues are
// concatenated in section order.
func TestDecodeLegacySections(t *testing.T) {
	c := buildMessyCluster(t, 2)
	// A finished job not yet retired must join the decoded done list.
	j := c.SubmitJob(Batch, 0, 50*time.Second, []TaskSpec{{}})
	if err := c.Place(j.Tasks[0], 0, 51*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(j.Tasks[0], 52*time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 16
	retired := make([][2]int64, n)
	var wantJobs, wantTasks int64
	for i := range retired {
		retired[i] = [2]int64{int64(i), int64(3 * i)}
		wantJobs += int64(i)
		wantTasks += int64(3 * i)
	}
	b, wantEvents := encodeLegacy(c, n, retired)
	d := wal.NewDec(b)
	c2, err := DecodeSnapshot(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d undecoded bytes", d.Remaining())
	}

	if len(c2.jobs) != len(c.jobs) || len(c2.tasks) != len(c.tasks) {
		t.Fatalf("decoded %d jobs and %d tasks, want %d and %d", len(c2.jobs), len(c2.tasks), len(c.jobs), len(c.tasks))
	}
	for id, job := range c.jobs {
		if got := c2.jobs[id]; !reflect.DeepEqual(got, job) {
			t.Fatalf("job %d decoded as %+v, want %+v", id, got, job)
		}
		for _, tid := range job.Tasks {
			if got, want := c2.tasks[tid], c.tasks[tid]; !reflect.DeepEqual(got, want) {
				t.Fatalf("task %d decoded as %+v, want %+v", tid, got, want)
			}
		}
	}
	if jobs, tasks := c2.Retired(); jobs != wantJobs || tasks != wantTasks {
		t.Fatalf("Retired = (%d, %d), want the section sums (%d, %d)", jobs, tasks, wantJobs, wantTasks)
	}
	if c2.NumPending() != c.NumPending() || c2.NumRunning() != c.NumRunning() || c2.TotalSlots() != c.TotalSlots() {
		t.Fatalf("decoded pending/running/slots %d/%d/%d, want %d/%d/%d",
			c2.NumPending(), c2.NumRunning(), c2.TotalSlots(), c.NumPending(), c.NumRunning(), c.TotalSlots())
	}
	if c2.NumQueuedEvictions() != c.NumQueuedEvictions() {
		t.Fatalf("decoded %d queued evictions, want %d", c2.NumQueuedEvictions(), c.NumQueuedEvictions())
	}
	if got := drain(c2); !slices.Equal(got, wantEvents) {
		t.Fatalf("decoded event queue %+v, want the sections in order %+v", got, wantEvents)
	}
	if got, want := c2.RetireDone(), c.RetireDone(); got != want || c2.Job(j.ID) != nil {
		t.Fatalf("decoded RetireDone retired %d jobs, want %d including job %d", got, want, j.ID)
	}

	// A section count that is not a power of two is rejected.
	b, _ = encodeLegacy(c, 3, make([][2]int64, 3))
	if _, err := DecodeSnapshot(wal.NewDec(b)); err == nil {
		t.Fatal("decoded a 3-section snapshot")
	}
}
