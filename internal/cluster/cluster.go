// Package cluster is the cluster-manager substrate Firmament schedules
// against (paper §2): machines grouped into racks, each exposing task
// slots; jobs composed of parallel tasks; and the task lifecycle of paper
// Figure 1 (submitted → waiting → scheduling → running → completed).
//
// The package holds pure state plus an event log. The scheduler consumes
// events (task submissions, completions, machine changes) to update its
// flow network, and mutates state through Place/Preempt/Complete. Virtual
// time is supplied by the caller (the simulator or a real clock); the
// cluster never reads a wall clock.
//
// # Retirement
//
// A job whose last task completes joins the done list. Nothing leaves the
// tables on its own: the owner calls RetireDone once every consumer of the
// completion events has folded them in, and the listed jobs and their task
// records are deleted, their task count added to the retired totals. The
// tables then hold live work only, and the cost of retirement is
// proportional to the jobs retired. CountStates and the snapshot carry the
// retired totals, so the task conservation identity (pending + running +
// completed + failed = submitted) holds across retirement. A retired job
// or task is unknown to Task, Job and JobDone. The serving layer retires
// once per round; the simulator and the experiments never do and keep
// every record.
//
// # Concurrency
//
// A Cluster is safe for concurrent use. One lock guards the job, task and
// pending tables, the append-only event journal and machine occupancy and
// health; SubmitJob takes it once per job, and the scheduler's drain holds
// it only for a buffer swap. The iteration callbacks (Machines, Jobs) run
// under the lock's read side and must not call a method that takes it.
// Aggregate figures (NumPending, TotalSlots, NumQueuedEvents,
// NumQueuedEvictions) are atomic counters and never take a lock at all.
//
// The locking guards the tables themselves; the *Task, *Job and *Machine
// records handed out by accessors are only mutated by cluster methods, so
// a serving deployment must confine record-field reads and lifecycle
// mutations (Place, Preempt, Complete) to one scheduling goroutine, as
// internal/service does. Hooks are invoked after all locks are released
// and may call back into the cluster.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MachineID identifies a machine. IDs are dense indices.
type MachineID int32

// RackID identifies a rack. IDs are dense indices.
type RackID int32

// JobID identifies a job. IDs are dense and allocated in submission order.
type JobID int32

// TaskID identifies a task across all jobs. The ID encodes its job in the
// high 32 bits and the task's index within the job in the low 32 bits, so
// a task's job is derivable from its ID alone and sorting task IDs yields
// (job, index) order — the submission order of a sequential workload.
// Journals and snapshots store IDs in this encoding.
type TaskID int64

// taskID builds the composite task identifier.
func taskID(j JobID, index int) TaskID { return TaskID(int64(j)<<32 | int64(index)) }

// JobOfTask recovers the job encoded in a task ID.
func JobOfTask(id TaskID) JobID { return JobID(id >> 32) }

// InvalidMachine is the "not placed" sentinel.
const InvalidMachine MachineID = -1

// TaskState is a stage of the task lifecycle (paper Figure 1).
type TaskState uint8

// Task lifecycle states.
const (
	TaskPending TaskState = iota // submitted, waiting for placement
	TaskRunning
	TaskCompleted
	TaskFailed
)

// String returns a short name for the state.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskCompleted:
		return "completed"
	case TaskFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// JobClass distinguishes the two workload types of the Google trace
// (paper §7.1, classified by priority as in Omega).
type JobClass uint8

// Job classes.
const (
	Batch JobClass = iota
	Service
)

// String returns a short name for the class.
func (c JobClass) String() string {
	if c == Service {
		return "service"
	}
	return "batch"
}

// Task is one schedulable unit of a job.
type Task struct {
	ID    TaskID
	Job   JobID
	Index int // i-th task of its job, as in the paper's T(j,i)

	// Workload properties.
	Duration  time.Duration // compute time once running
	InputFile int64         // storage file ID; <0 if no input
	InputSize int64         // bytes
	NetDemand int64         // bytes/sec the task requests (network-aware policy)

	// Lifecycle.
	State       TaskState
	SubmitTime  time.Duration
	StartTime   time.Duration
	FinishTime  time.Duration
	Machine     MachineID // placement while running
	Preemptions int
}

// Job is a set of parallel tasks sharing a class and priority.
type Job struct {
	ID         JobID
	Class      JobClass
	Priority   int
	SubmitTime time.Duration
	Tasks      []TaskID
	remaining  int // tasks not yet completed
}

// Machine is a schedulable host.
type Machine struct {
	ID       MachineID
	Rack     RackID
	Slots    int
	NICBps   int64 // full-duplex NIC capacity in bytes/sec
	running  map[TaskID]struct{}
	healthy  bool
	reserved int64 // sum of NetDemand of tasks placed here
}

// Running returns the number of tasks currently on the machine.
func (m *Machine) Running() int { return len(m.running) }

// Healthy reports whether the machine is accepting tasks.
func (m *Machine) Healthy() bool { return m.healthy }

// ReservedBandwidth returns the sum of network demands placed on the
// machine (the "requested" component of the network-aware policy).
func (m *Machine) ReservedBandwidth() int64 { return m.reserved }

// Topology describes the shape of a cluster.
type Topology struct {
	Racks           int
	MachinesPerRack int
	SlotsPerMachine int
	NICBps          int64 // defaults to 10 Gb/s if zero
}

// EventKind classifies a cluster event.
type EventKind uint8

// Cluster event kinds the scheduler reacts to.
const (
	EventTaskSubmitted EventKind = iota
	EventTaskCompleted
	EventTaskEvicted // failed machine or external kill; task back to pending
	EventMachineAdded
	EventMachineRemoved
)

// Event is one entry in the cluster's event log.
type Event struct {
	Kind    EventKind
	Task    TaskID
	Machine MachineID
	Time    time.Duration
}

// Hooks observe task state transitions. The simulator uses them to arm
// completion timers and start input transfers; all fields are optional.
type Hooks struct {
	Placed    func(t *Task, now time.Duration)
	Preempted func(t *Task, now time.Duration)
}

// Cluster is the authoritative cluster state.
type Cluster struct {
	// Hooks are invoked on state transitions when set. Set them before any
	// concurrent use; they run outside all cluster locks.
	Hooks Hooks

	topo    Topology
	nextJob atomic.Int32

	// mu guards the job, task and pending tables, the event journal, the
	// done list, the retired totals and machine occupancy and health.
	mu      sync.RWMutex
	jobs    map[JobID]*Job
	tasks   map[TaskID]*Task
	pending map[TaskID]struct{}
	events  []Event
	evicted int     // EventTaskEvicted entries in events
	spare   []Event // drained buffer recycled by DrainEvents
	done    []JobID // finished jobs awaiting RetireDone
	// Retired totals: jobs RetireDone removed and their (completed) tasks.
	retiredJobs  int64
	retiredTasks int64

	// Aggregates maintained on every transition so the hot paths
	// (backpressure checks, queue-depth metrics, idle detection) never
	// take a lock.
	numPending   atomic.Int64
	numEvents    atomic.Int64
	numEvicted   atomic.Int64 // the EventTaskEvicted share of numEvents
	healthySlots atomic.Int64

	machines []*Machine
	racks    [][]MachineID
}

// New builds a cluster with the given topology. All machines start healthy
// and empty; no events are emitted for the initial machines.
func New(topo Topology) *Cluster {
	if topo.NICBps == 0 {
		topo.NICBps = 10 * 1000 * 1000 * 1000 / 8 // 10 Gb/s in bytes/sec
	}
	c := &Cluster{
		topo:    topo,
		jobs:    make(map[JobID]*Job),
		tasks:   make(map[TaskID]*Task),
		pending: make(map[TaskID]struct{}),
		racks:   make([][]MachineID, topo.Racks),
	}
	for r := 0; r < topo.Racks; r++ {
		for i := 0; i < topo.MachinesPerRack; i++ {
			id := MachineID(len(c.machines))
			m := &Machine{
				ID:      id,
				Rack:    RackID(r),
				Slots:   topo.SlotsPerMachine,
				NICBps:  topo.NICBps,
				running: make(map[TaskID]struct{}),
				healthy: true,
			}
			c.machines = append(c.machines, m)
			c.racks[r] = append(c.racks[r], id)
			c.healthySlots.Add(int64(topo.SlotsPerMachine))
		}
	}
	return c
}

// Topology returns the construction topology.
func (c *Cluster) Topology() Topology { return c.topo }

// NumMachines returns the machine count (including unhealthy machines).
func (c *Cluster) NumMachines() int { return len(c.machines) }

// NumRacks returns the rack count.
func (c *Cluster) NumRacks() int { return len(c.racks) }

// Machine returns the machine with the given ID, or nil if no such
// machine exists. IDs arrive from remote clients, so out-of-range values
// must be answerable, not a panic.
func (c *Cluster) Machine(id MachineID) *Machine {
	if id < 0 || int(id) >= len(c.machines) {
		return nil
	}
	return c.machines[id]
}

// Machines calls fn for every machine in ID order under the table lock's
// read side: fn sees a consistent snapshot of each machine's occupancy but
// must not call a method that takes the table lock (Task, Job, Place, ...).
func (c *Cluster) Machines(fn func(*Machine)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.machines {
		fn(m)
	}
}

// RackMachines returns the machine IDs in a rack, or nil for an unknown
// rack. The returned slice must not be modified.
func (c *Cluster) RackMachines(r RackID) []MachineID {
	if r < 0 || int(r) >= len(c.racks) {
		return nil
	}
	return c.racks[r]
}

// RackOf returns the rack of a machine, or -1 for an unknown machine.
func (c *Cluster) RackOf(id MachineID) RackID {
	m := c.Machine(id)
	if m == nil {
		return -1
	}
	return m.Rack
}

// Task returns the task with the given ID, or nil.
func (c *Cluster) Task(id TaskID) *Task {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tasks[id]
}

// Job returns the job with the given ID, or nil.
func (c *Cluster) Job(id JobID) *Job {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.jobs[id]
}

// Jobs calls fn for every job, holding the table lock; fn must not call
// mutating cluster methods. Iteration order is unspecified.
func (c *Cluster) Jobs(fn func(*Job)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, j := range c.jobs {
		fn(j)
	}
}

// PendingTasks returns the IDs of tasks waiting for placement. The order
// is unspecified; callers needing determinism must sort.
func (c *Cluster) PendingTasks() []TaskID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]TaskID, 0, len(c.pending))
	for id := range c.pending {
		out = append(out, id)
	}
	return out
}

// NumPending returns the number of tasks waiting for placement. It reads
// an atomic counter and never blocks — front-door backpressure checks sit
// on this path.
func (c *Cluster) NumPending() int { return int(c.numPending.Load()) }

// NumRunning returns the number of running tasks.
func (c *Cluster) NumRunning() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, m := range c.machines {
		n += len(m.running)
	}
	return n
}

// TotalSlots returns the slot count over healthy machines (an atomic
// counter maintained on machine removal/restore).
func (c *Cluster) TotalSlots() int { return int(c.healthySlots.Load()) }

// SlotUtilization returns running tasks / healthy slots.
func (c *Cluster) SlotUtilization() float64 {
	slots := c.TotalSlots()
	if slots == 0 {
		return 0
	}
	return float64(c.NumRunning()) / float64(slots)
}

// SubmitJob registers a job and its tasks at the given virtual time,
// emitting one EventTaskSubmitted per task into the event journal. The
// specs slice supplies one entry per task. SubmitJob takes the table lock
// once for the whole job.
func (c *Cluster) SubmitJob(class JobClass, priority int, now time.Duration, specs []TaskSpec) *Job {
	return c.SubmitJobWithID(c.AllocJobID(), class, priority, now, specs)
}

// AllocJobID reserves the next job ID without registering anything. The
// durable front door allocates the ID first, journals the submission under
// it, and only then registers the job via SubmitJobWithID — guaranteeing
// the journal record for a job precedes any scheduling record that
// references it. A reserved ID that is never submitted leaves a harmless
// gap in the ID space.
func (c *Cluster) AllocJobID() JobID { return JobID(c.nextJob.Add(1) - 1) }

// SubmitJobWithID registers a job under a caller-supplied ID — one minted
// by AllocJobID, or one read back from a journal during replay. The
// allocator is bumped past id so fresh allocations never collide with
// replayed ones. The caller must not reuse a live job ID.
func (c *Cluster) SubmitJobWithID(id JobID, class JobClass, priority int, now time.Duration, specs []TaskSpec) *Job {
	for {
		cur := c.nextJob.Load()
		if cur > int32(id) {
			break
		}
		if c.nextJob.CompareAndSwap(cur, int32(id)+1) {
			break
		}
	}
	job := &Job{
		ID:         id,
		Class:      class,
		Priority:   priority,
		SubmitTime: now,
		Tasks:      make([]TaskID, 0, len(specs)),
		remaining:  len(specs),
	}
	c.mu.Lock()
	c.jobs[id] = job
	if len(specs) == 0 {
		c.done = append(c.done, id) // nothing to wait for
	}
	for i, spec := range specs {
		t := &Task{
			ID:         taskID(id, i),
			Job:        id,
			Index:      i,
			Duration:   spec.Duration,
			InputFile:  spec.InputFile,
			InputSize:  spec.InputSize,
			NetDemand:  spec.NetDemand,
			State:      TaskPending,
			SubmitTime: now,
			Machine:    InvalidMachine,
		}
		c.tasks[t.ID] = t
		job.Tasks = append(job.Tasks, t.ID)
		c.pending[t.ID] = struct{}{}
		c.events = append(c.events, Event{Kind: EventTaskSubmitted, Task: t.ID, Time: now})
	}
	// Counters move inside the critical section: anyone who acquires the
	// table lock and sees these tasks (the scheduler about to Place and
	// decrement) has necessarily seen the increment too, so the aggregates
	// can never go transiently negative.
	c.numPending.Add(int64(len(specs)))
	c.numEvents.Add(int64(len(specs)))
	c.mu.Unlock()
	return job
}

// TaskSpec describes one task at submission.
type TaskSpec struct {
	Duration  time.Duration
	InputFile int64
	InputSize int64
	NetDemand int64
}

// Place moves a pending task to running on the given machine. It returns an
// error if the task is not pending, the machine is unhealthy, or the
// machine has no free slot.
func (c *Cluster) Place(id TaskID, m MachineID, now time.Duration) error {
	c.mu.Lock()
	t, ok := c.tasks[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: place of unknown task %d", id)
	}
	if t.State != TaskPending {
		c.mu.Unlock()
		return fmt.Errorf("cluster: place of task %d in state %s", id, t.State)
	}
	mach := c.machines[m]
	if !mach.healthy {
		c.mu.Unlock()
		return fmt.Errorf("cluster: place of task %d on unhealthy machine %d", id, m)
	}
	if len(mach.running) >= mach.Slots {
		c.mu.Unlock()
		return fmt.Errorf("cluster: machine %d has no free slot for task %d", m, id)
	}
	t.State = TaskRunning
	t.Machine = m
	t.StartTime = now
	mach.running[id] = struct{}{}
	mach.reserved += t.NetDemand
	delete(c.pending, id)
	c.numPending.Add(-1)
	c.mu.Unlock()
	if c.Hooks.Placed != nil {
		c.Hooks.Placed(t, now)
	}
	return nil
}

// Preempt stops a running task and returns it to the pending queue
// (flow-based scheduling may preempt and migrate tasks, paper §2.2).
func (c *Cluster) Preempt(id TaskID, now time.Duration) error {
	c.mu.Lock()
	t, ok := c.tasks[id]
	if !ok || t.State != TaskRunning {
		c.mu.Unlock()
		return fmt.Errorf("cluster: preempt of task %d not running", id)
	}
	c.detach(t)
	t.State = TaskPending
	t.Preemptions++
	c.pending[id] = struct{}{}
	c.events = append(c.events, Event{Kind: EventTaskEvicted, Task: id, Machine: t.Machine, Time: now})
	c.evicted++
	t.Machine = InvalidMachine
	c.numPending.Add(1)
	c.numEvents.Add(1)
	c.numEvicted.Add(1)
	c.mu.Unlock()
	if c.Hooks.Preempted != nil {
		c.Hooks.Preempted(t, now)
	}
	return nil
}

// Complete marks a running task finished, freeing its slot and emitting
// EventTaskCompleted.
func (c *Cluster) Complete(id TaskID, now time.Duration) error {
	c.mu.Lock()
	t, ok := c.tasks[id]
	if !ok || t.State != TaskRunning {
		c.mu.Unlock()
		return fmt.Errorf("cluster: complete of task %d not running", id)
	}
	m := t.Machine
	c.detach(t)
	t.State = TaskCompleted
	t.FinishTime = now
	t.Machine = InvalidMachine
	j := c.jobs[t.Job]
	if j.remaining--; j.remaining == 0 {
		c.done = append(c.done, j.ID)
	}
	c.events = append(c.events, Event{Kind: EventTaskCompleted, Task: id, Machine: m, Time: now})
	c.numEvents.Add(1)
	c.mu.Unlock()
	return nil
}

// JobDone reports whether all tasks of the job have completed. An unknown
// job — a retired one included — is not done: remote clients can probe
// arbitrary IDs, so the lookup must answer rather than panic.
func (c *Cluster) JobDone(id JobID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	j, ok := c.jobs[id]
	return ok && j.remaining == 0
}

// RetireDone deletes every finished job on the done list, with its task
// records. It returns the number of jobs retired; their tasks join the
// retired totals. The caller must have folded the jobs' completion events into
// whatever consumes them (the scheduler's graph looks task records up as
// it removes their nodes). The work is proportional to the jobs retired
// and their tasks: no table is walked.
func (c *Cluster) RetireDone() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.done)
	for _, id := range c.done {
		j := c.jobs[id]
		for _, tid := range j.Tasks {
			delete(c.tasks, tid)
		}
		delete(c.jobs, id)
		c.retiredTasks += int64(len(j.Tasks))
	}
	c.retiredJobs += int64(n)
	c.done = c.done[:0]
	return n
}

// Retired returns the retired totals: jobs RetireDone has removed and
// their tasks, all of which had completed.
func (c *Cluster) Retired() (jobs, tasks int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.retiredJobs, c.retiredTasks
}

// RemoveMachine marks a machine unhealthy and evicts its tasks back to
// pending, emitting one EventTaskEvicted per task and then
// EventMachineRemoved. It returns an error — without mutating anything —
// if the machine is unknown or already removed, so callers can account for
// stale operations instead of losing them silently.
func (c *Cluster) RemoveMachine(id MachineID, now time.Duration) error {
	if id < 0 || int(id) >= len(c.machines) {
		return fmt.Errorf("cluster: remove of unknown machine %d", id)
	}
	c.mu.Lock()
	m := c.machines[id]
	if !m.healthy {
		c.mu.Unlock()
		return fmt.Errorf("cluster: remove of already-removed machine %d", id)
	}
	m.healthy = false
	c.healthySlots.Add(-int64(m.Slots))
	evicted := make([]*Task, 0, len(m.running))
	for tid := range m.running {
		evicted = append(evicted, c.tasks[tid])
	}
	for _, t := range evicted {
		c.detach(t)
		t.State = TaskPending
		t.Preemptions++
		t.Machine = InvalidMachine
		c.pending[t.ID] = struct{}{}
		c.events = append(c.events, Event{Kind: EventTaskEvicted, Task: t.ID, Machine: id, Time: now})
	}
	c.events = append(c.events, Event{Kind: EventMachineRemoved, Machine: id, Time: now})
	n := int64(len(evicted))
	c.evicted += len(evicted)
	c.numPending.Add(n)
	c.numEvents.Add(n + 1)
	c.numEvicted.Add(n)
	c.mu.Unlock()

	if c.Hooks.Preempted != nil {
		for _, t := range evicted {
			c.Hooks.Preempted(t, now)
		}
	}
	return nil
}

// RestoreMachine returns an unhealthy machine to service. Like
// RemoveMachine it returns an error, without mutating anything, for an
// unknown or already-healthy machine.
func (c *Cluster) RestoreMachine(id MachineID, now time.Duration) error {
	if id < 0 || int(id) >= len(c.machines) {
		return fmt.Errorf("cluster: restore of unknown machine %d", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.machines[id]
	if m.healthy {
		return fmt.Errorf("cluster: restore of machine %d not removed", id)
	}
	m.healthy = true
	c.healthySlots.Add(int64(m.Slots))
	c.events = append(c.events, Event{Kind: EventMachineAdded, Machine: id, Time: now})
	c.numEvents.Add(1)
	return nil
}

// DrainEvents hands fn every event logged since the previous drain, in
// append order, and clears the journal. Per-task and per-machine causal
// order is therefore preserved. The table lock is held only for the
// buffer swap, never while fn runs, so event consumers (the scheduler's
// graph update) execute under no cluster lock and submitters proceed
// unimpeded. fn is not called when nothing was logged; a nil fn discards
// the events. The slice passed to fn is only valid for the duration of the
// call: its backing array is recycled for the next journal. Events logged
// by concurrent submitters while a round is in flight accumulate and drain
// as one batch at the next round — the event-coalescing behavior of the
// paper (Fig. 2b).
func (c *Cluster) DrainEvents(fn func([]Event)) {
	c.mu.Lock()
	ev := c.events
	c.events = c.spare[:0]
	c.spare = nil
	c.numEvents.Add(-int64(len(ev)))
	c.numEvicted.Add(-int64(c.evicted))
	c.evicted = 0
	c.mu.Unlock()
	if len(ev) > 0 && fn != nil {
		fn(ev)
	}
	c.mu.Lock()
	c.spare = ev[:0]
	c.mu.Unlock()
}

// NumQueuedEvents returns the number of events accumulated since the last
// drain (the service layer reports it as queue depth). Like NumPending it
// is an atomic counter read.
func (c *Cluster) NumQueuedEvents() int { return int(c.numEvents.Load()) }

// NumQueuedEvictions returns how many of the queued events are
// EventTaskEvicted: tasks a preemption, a migration or a machine removal
// took off their machines since the last drain. Submissions and completions
// leave it alone, so concurrent submitters do not move it.
func (c *Cluster) NumQueuedEvictions() int { return int(c.numEvicted.Load()) }

// detach removes a task from its machine's bookkeeping. The caller holds
// the table lock.
func (c *Cluster) detach(t *Task) {
	if t.Machine == InvalidMachine {
		return
	}
	m := c.machines[t.Machine]
	delete(m.running, t.ID)
	m.reserved -= t.NetDemand
}
