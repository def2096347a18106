// Package baselines implements the queue-based, task-by-task schedulers
// Firmament is compared against on the local testbed (paper §7.5,
// Fig. 19): Sparrow [28], Docker SwarmKit, Kubernetes [14], and Mesos [21].
//
// Each baseline follows the queue-based timeline of paper Fig. 2a: one task
// at a time, a feasibility filter, a scoring pass, and a commitment that
// cannot be revisited. None of them considers network bandwidth — which is
// exactly why their task response time tails inflate under contention
// while Firmament's network-aware policy holds (paper Fig. 19b).
package baselines

import (
	"math/rand"
	"time"

	"firmament/internal/cluster"
)

// QueueScheduler is a task-by-task scheduler (paper §2.1). The simulator
// feeds it pending tasks one at a time.
type QueueScheduler interface {
	Name() string
	// Distributed reports whether placement decisions happen in parallel
	// per task (distributed schedulers like Sparrow) rather than through a
	// serial head-of-line queue (centralized queue-based schedulers).
	Distributed() bool
	// DecisionLatency is the (virtual) time one placement decision takes.
	DecisionLatency() time.Duration
	// PlaceTask picks a machine for the task, or ok=false to leave it
	// queued for retry (e.g. no machine currently has a free slot).
	PlaceTask(t *cluster.Task, now time.Duration) (m cluster.MachineID, ok bool)
}

// Sparrow approximates Sparrow's batch sampling with late binding [28]: for
// each task it probes two random machines and places the task on the one
// with the shorter queue (fewer running tasks), never inspecting network
// load. Decisions are distributed and fast.
type Sparrow struct {
	cl  *cluster.Cluster
	rng *rand.Rand
}

// NewSparrow returns a Sparrow-like scheduler.
func NewSparrow(cl *cluster.Cluster, seed int64) *Sparrow {
	return &Sparrow{cl: cl, rng: rand.New(rand.NewSource(seed))}
}

// Name implements QueueScheduler.
func (s *Sparrow) Name() string { return "sparrow" }

// Distributed implements QueueScheduler.
func (s *Sparrow) Distributed() bool { return true }

// DecisionLatency implements QueueScheduler: one probe round-trip.
func (s *Sparrow) DecisionLatency() time.Duration { return time.Millisecond }

// PlaceTask implements QueueScheduler.
func (s *Sparrow) PlaceTask(t *cluster.Task, now time.Duration) (cluster.MachineID, bool) {
	n := s.cl.NumMachines()
	var best cluster.MachineID = cluster.InvalidMachine
	bestLoad := 1 << 30
	for probe := 0; probe < 2; probe++ {
		m := s.cl.Machine(cluster.MachineID(s.rng.Intn(n)))
		if !m.Healthy() || m.Running() >= m.Slots {
			continue
		}
		if m.Running() < bestLoad {
			best, bestLoad = m.ID, m.Running()
		}
	}
	if best == cluster.InvalidMachine {
		return 0, false // both probes full; retry later
	}
	return best, true
}

// SwarmKit approximates Docker SwarmKit's spread strategy: place on the
// healthy machine with the fewest running tasks (paper §3.3 notes the
// load-spreading policy matches SwarmKit's behaviour).
type SwarmKit struct {
	cl *cluster.Cluster
}

// NewSwarmKit returns a SwarmKit-like scheduler.
func NewSwarmKit(cl *cluster.Cluster) *SwarmKit { return &SwarmKit{cl: cl} }

// Name implements QueueScheduler.
func (s *SwarmKit) Name() string { return "swarmkit" }

// Distributed implements QueueScheduler.
func (s *SwarmKit) Distributed() bool { return false }

// DecisionLatency implements QueueScheduler.
func (s *SwarmKit) DecisionLatency() time.Duration { return 500 * time.Microsecond }

// PlaceTask implements QueueScheduler.
func (s *SwarmKit) PlaceTask(t *cluster.Task, now time.Duration) (cluster.MachineID, bool) {
	var best cluster.MachineID = cluster.InvalidMachine
	bestLoad := 1 << 30
	s.cl.Machines(func(m *cluster.Machine) {
		if !m.Healthy() || m.Running() >= m.Slots {
			return
		}
		if m.Running() < bestLoad {
			best, bestLoad = m.ID, m.Running()
		}
	})
	if best == cluster.InvalidMachine {
		return 0, false
	}
	return best, true
}

// Kubernetes approximates the default kube-scheduler: filter machines with
// a free slot, then score by least-requested capacity combined with
// same-job spreading (LeastRequestedPriority + SelectorSpreadPriority).
// Network bandwidth is not a scored resource.
type Kubernetes struct {
	cl *cluster.Cluster
}

// NewKubernetes returns a kube-scheduler-like scheduler.
func NewKubernetes(cl *cluster.Cluster) *Kubernetes { return &Kubernetes{cl: cl} }

// Name implements QueueScheduler.
func (k *Kubernetes) Name() string { return "kubernetes" }

// Distributed implements QueueScheduler.
func (k *Kubernetes) Distributed() bool { return false }

// DecisionLatency implements QueueScheduler.
func (k *Kubernetes) DecisionLatency() time.Duration { return 2 * time.Millisecond }

// PlaceTask implements QueueScheduler.
func (k *Kubernetes) PlaceTask(t *cluster.Task, now time.Duration) (cluster.MachineID, bool) {
	// The job's running tasks per machine, counted before the walk: the
	// Machines callback must not call Job or Task, which take the lock it
	// runs under. The cluster does not index running tasks by job, so scan
	// the job's tasks (jobs are small relative to machines).
	sameJob := make(map[cluster.MachineID]int)
	if job := k.cl.Job(t.Job); job != nil {
		for _, id := range job.Tasks {
			if task := k.cl.Task(id); task != nil && task.State == cluster.TaskRunning {
				sameJob[task.Machine]++
			}
		}
	}
	var best cluster.MachineID = cluster.InvalidMachine
	bestScore := -1 << 60
	k.cl.Machines(func(m *cluster.Machine) {
		if !m.Healthy() || m.Running() >= m.Slots {
			return
		}
		// Least-requested: fraction of free slots, scaled to 0..10.
		free := m.Slots - m.Running()
		score := 10 * free / m.Slots
		// Spread: penalize machines already running tasks of this job.
		score -= 2 * sameJob[m.ID]
		if score > bestScore || (score == bestScore && m.ID < best) {
			best, bestScore = m.ID, score
		}
	})
	if best == cluster.InvalidMachine {
		return 0, false
	}
	return best, true
}

// Mesos approximates a Mesos framework receiving offers: the allocator
// offers resources from machines in a round-robin-randomized order and the
// framework takes the first offer with a free slot — effectively a random
// feasible machine, with no global scoring (paper §8: "Mesos and Borg
// match tasks to resources greedily").
type Mesos struct {
	cl  *cluster.Cluster
	rng *rand.Rand
}

// NewMesos returns a Mesos-like scheduler.
func NewMesos(cl *cluster.Cluster, seed int64) *Mesos {
	return &Mesos{cl: cl, rng: rand.New(rand.NewSource(seed))}
}

// Name implements QueueScheduler.
func (m *Mesos) Name() string { return "mesos" }

// Distributed implements QueueScheduler.
func (m *Mesos) Distributed() bool { return false }

// DecisionLatency implements QueueScheduler: offer round trips are slow.
func (m *Mesos) DecisionLatency() time.Duration { return 5 * time.Millisecond }

// PlaceTask implements QueueScheduler.
func (m *Mesos) PlaceTask(t *cluster.Task, now time.Duration) (cluster.MachineID, bool) {
	n := m.cl.NumMachines()
	start := m.rng.Intn(n)
	for i := 0; i < n; i++ {
		mach := m.cl.Machine(cluster.MachineID((start + i) % n))
		if mach.Healthy() && mach.Running() < mach.Slots {
			return mach.ID, true
		}
	}
	return 0, false
}
