package baselines

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"firmament/internal/cluster"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 2})
}

func submit(cl *cluster.Cluster, n int) []cluster.TaskID {
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, n))
	return job.Tasks
}

func allSchedulers(cl *cluster.Cluster) []QueueScheduler {
	return []QueueScheduler{
		NewSparrow(cl, 1),
		NewSwarmKit(cl),
		NewKubernetes(cl),
		NewMesos(cl, 1),
	}
}

func TestAllSchedulersPlaceOnFeasibleMachines(t *testing.T) {
	for _, s := range allSchedulers(testCluster()) {
		t.Run(s.Name(), func(t *testing.T) {
			cl := testCluster()
			var sched QueueScheduler
			switch s.Name() {
			case "sparrow":
				sched = NewSparrow(cl, 1)
			case "swarmkit":
				sched = NewSwarmKit(cl)
			case "kubernetes":
				sched = NewKubernetes(cl)
			case "mesos":
				sched = NewMesos(cl, 1)
			}
			ids := submit(cl, 12)
			placed := 0
			for attempt := 0; attempt < 200 && placed < len(ids); attempt++ {
				for _, id := range ids {
					task := cl.Task(id)
					if task.State != cluster.TaskPending {
						continue
					}
					if m, ok := sched.PlaceTask(task, 0); ok {
						if err := cl.Place(id, m, 0); err == nil {
							placed++
						}
					}
				}
			}
			// 16 slots, 12 tasks: everything must fit eventually.
			if placed != 12 {
				t.Fatalf("placed %d/12", placed)
			}
			cl.Machines(func(m *cluster.Machine) {
				if m.Running() > m.Slots {
					t.Fatalf("machine %d oversubscribed", m.ID)
				}
			})
		})
	}
}

func TestSchedulersReportFullCluster(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 1})
	fill := submit(cl, 2)
	cl.Place(fill[0], 0, 0)
	cl.Place(fill[1], 1, 0)
	extra := submit(cl, 1)
	task := cl.Task(extra[0])
	for _, s := range []QueueScheduler{NewSwarmKit(cl), NewKubernetes(cl), NewMesos(cl, 1)} {
		if _, ok := s.PlaceTask(task, 0); ok {
			t.Fatalf("%s placed a task on a full cluster", s.Name())
		}
	}
}

func TestSwarmKitSpreadsLeastLoaded(t *testing.T) {
	cl := testCluster()
	s := NewSwarmKit(cl)
	ids := submit(cl, 3)
	cl.Place(ids[0], 0, 0)
	cl.Place(ids[1], 0, 0) // machine 0 now full
	m, ok := s.PlaceTask(cl.Task(ids[2]), 0)
	if !ok || m == 0 {
		t.Fatalf("swarmkit chose %v, want an empty machine", m)
	}
}

func TestKubernetesSpreadsJobTasks(t *testing.T) {
	cl := testCluster()
	k := NewKubernetes(cl)
	ids := submit(cl, 2)
	m1, ok := k.PlaceTask(cl.Task(ids[0]), 0)
	if !ok {
		t.Fatal("no placement")
	}
	cl.Place(ids[0], m1, 0)
	m2, ok := k.PlaceTask(cl.Task(ids[1]), 0)
	if !ok {
		t.Fatal("no placement for second task")
	}
	if m2 == m1 {
		t.Fatal("kubernetes placed same-job tasks on one machine with empties available")
	}

	// Seeded random cluster states: every decision must equal the nested
	// scan's, which counted same-job tasks per machine inside the walk.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cl := randomClusterState(rng)
		k := NewKubernetes(cl)
		for _, id := range cl.PendingTasks() {
			task := cl.Task(id)
			got, gotOK := k.PlaceTask(task, 0)
			want, wantOK := nestedScanKubernetes(cl, task)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d task %d: PlaceTask = (%d, %v), nested scan = (%d, %v)", seed, id, got, gotOK, want, wantOK)
			}
		}
	}
}

// randomClusterState builds a cluster with random topology, jobs, placements,
// completions and removed machines.
func randomClusterState(rng *rand.Rand) *cluster.Cluster {
	cl := cluster.New(cluster.Topology{
		Racks:           1 + rng.Intn(3),
		MachinesPerRack: 1 + rng.Intn(6),
		SlotsPerMachine: 1 + rng.Intn(4),
	})
	for j := 0; j < 2+rng.Intn(6); j++ {
		job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 1+rng.Intn(8)))
		for _, id := range job.Tasks {
			if rng.Intn(3) > 0 {
				cl.Place(id, cluster.MachineID(rng.Intn(cl.NumMachines())), 0) // full machines refuse
			}
		}
	}
	for m := 0; m < cl.NumMachines(); m++ {
		if rng.Intn(5) == 0 {
			cl.RemoveMachine(cluster.MachineID(m), 0)
		}
	}
	for _, id := range cl.PendingTasks() {
		if rng.Intn(2) == 0 {
			cl.Place(id, cluster.MachineID(rng.Intn(cl.NumMachines())), 0)
		}
	}
	var jobs []*cluster.Job
	cl.Jobs(func(j *cluster.Job) { jobs = append(jobs, j) })
	slices.SortFunc(jobs, func(a, b *cluster.Job) int { return int(a.ID - b.ID) })
	for _, j := range jobs {
		for _, id := range j.Tasks {
			if rng.Intn(4) == 0 {
				cl.Complete(id, 0) // pending tasks refuse
			}
		}
	}
	return cl
}

// nestedScanKubernetes is the Kubernetes scoring as it stood when the job's
// same-machine count was scanned per machine inside the walk. It visits
// machines by ID rather than through Machines, whose callback may not take
// the table lock that Job and Task take.
func nestedScanKubernetes(cl *cluster.Cluster, t *cluster.Task) (cluster.MachineID, bool) {
	sameJob := func(m *cluster.Machine, j cluster.JobID) int {
		n := 0
		job := cl.Job(j)
		if job == nil {
			return 0
		}
		for _, id := range job.Tasks {
			if task := cl.Task(id); task.State == cluster.TaskRunning && task.Machine == m.ID {
				n++
			}
		}
		return n
	}
	var best cluster.MachineID = cluster.InvalidMachine
	bestScore := -1 << 60
	for id := 0; id < cl.NumMachines(); id++ {
		m := cl.Machine(cluster.MachineID(id))
		if !m.Healthy() || m.Running() >= m.Slots {
			continue
		}
		free := m.Slots - m.Running()
		score := 10 * free / m.Slots
		score -= 2 * sameJob(m, t.Job)
		if score > bestScore || (score == bestScore && m.ID < best) {
			best, bestScore = m.ID, score
		}
	}
	if best == cluster.InvalidMachine {
		return 0, false
	}
	return best, true
}

func TestSparrowSamplesAreSeeded(t *testing.T) {
	run := func() []cluster.MachineID {
		cl := testCluster()
		s := NewSparrow(cl, 7)
		ids := submit(cl, 6)
		var out []cluster.MachineID
		for _, id := range ids {
			if m, ok := s.PlaceTask(cl.Task(id), 0); ok {
				cl.Place(id, m, 0)
				out = append(out, m)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic sparrow with same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic sparrow with same seed")
		}
	}
}

func TestDecisionLatenciesAndFlags(t *testing.T) {
	cl := testCluster()
	for _, s := range allSchedulers(cl) {
		if s.DecisionLatency() <= 0 || s.DecisionLatency() > 50*time.Millisecond {
			t.Fatalf("%s: implausible decision latency %v", s.Name(), s.DecisionLatency())
		}
	}
	if !NewSparrow(cl, 1).Distributed() {
		t.Fatal("sparrow must be distributed")
	}
	for _, s := range []QueueScheduler{NewSwarmKit(cl), NewKubernetes(cl), NewMesos(cl, 1)} {
		if s.Distributed() {
			t.Fatalf("%s must be centralized", s.Name())
		}
	}
}

func TestSchedulersSkipUnhealthyMachines(t *testing.T) {
	cl := testCluster()
	for m := 1; m < cl.NumMachines(); m++ {
		cl.RemoveMachine(cluster.MachineID(m), 0)
	}
	ids := submit(cl, 1)
	task := cl.Task(ids[0])
	for _, s := range allSchedulers(cl) {
		for i := 0; i < 20; i++ {
			if m, ok := s.PlaceTask(task, 0); ok && m != 0 {
				t.Fatalf("%s placed on unhealthy machine %d", s.Name(), m)
			}
		}
	}
}
