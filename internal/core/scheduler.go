package core

import (
	"time"

	"firmament/internal/cluster"
	"firmament/internal/policy"
)

// Config configures a Scheduler.
type Config struct {
	// Mode selects the solver configuration (default ModeFirmament).
	Mode SolverMode
	// Alpha is the cost scaling epsilon divisor; the paper found 9 about
	// 30% faster than 2 on the Google workload (§7.2). DefaultConfig uses
	// 9; a value below 2 leaves the solver's own default, 12.
	Alpha int64
}

// DefaultConfig is Firmament's production configuration: both algorithms
// speculatively, alpha=9. The paper's heuristics are always on: arc
// prioritization (§5.3.1), flow draining on task removal (§5.3.2) and the
// price refine state transfer (§6.2).
func DefaultConfig() Config {
	return Config{Mode: ModeFirmament, Alpha: 9}
}

// Scheduler is the Firmament scheduler: a flow-based, centralized scheduler
// that reconsiders the entire workload on every scheduling round
// (paper Fig. 2b / Fig. 4).
type Scheduler struct {
	cl   *cluster.Cluster
	gm   *GraphManager
	pool *SolverPool
	cfg  Config
}

// NewScheduler builds a scheduler over cl using the given policy.
func NewScheduler(cl *cluster.Cluster, model policy.CostModel, cfg Config) *Scheduler {
	return newScheduler(cl, NewGraphManager(cl, model), cfg)
}

// newScheduler configures gm and a fresh solver pool from cfg. NewScheduler
// and RestoreScheduler both build through it, so a restored scheduler
// honours every Config field a live one does.
func newScheduler(cl *cluster.Cluster, gm *GraphManager, cfg Config) *Scheduler {
	pool := NewSolverPool(cfg.Mode)
	pool.Options.Alpha = cfg.Alpha
	return &Scheduler{cl: cl, gm: gm, pool: pool, cfg: cfg}
}

// GraphManager exposes the graph manager (tests and experiments).
func (s *Scheduler) GraphManager() *GraphManager { return s.gm }

// Pool exposes the solver pool (experiments tweak its options).
func (s *Scheduler) Pool() *SolverPool { return s.pool }

// Round is the outcome of one scheduling computation, before application.
// The simulator applies it after the algorithm runtime has (virtually)
// elapsed, matching the flow-scheduler timeline of paper Fig. 2b.
//
// A Round from Schedule or ExtractRound references its scheduler's reused
// placement table instead of copying it, and stays valid until that
// scheduler's next Schedule, UpdateOnly, ExtractRound or ExtractPlacements;
// applying or reading it after that panics.
type Round struct {
	// Mappings is the input of a hand-built Round: task → machine for
	// every task to schedule, absent tasks remaining or becoming
	// unscheduled. It is read only when the Round did not come from an
	// extraction, which leaves it nil; read those placements with Machine.
	Mappings map[cluster.TaskID]cluster.MachineID
	// Stats describes the computation.
	Stats RoundStats

	gm  *GraphManager // whose table holds the placements; nil if hand-built
	gen uint64        // the table's stamp when it was extracted
}

// Machine returns the machine the round places task id on, and false if the
// round leaves it unscheduled.
func (r *Round) Machine(id cluster.TaskID) (cluster.MachineID, bool) {
	if r.gm == nil {
		m, ok := r.Mappings[id]
		return m, ok
	}
	placed := r.gm.placements(r)
	n, ok := r.gm.taskNode[id]
	if !ok || placed[n] == cluster.InvalidMachine {
		return cluster.InvalidMachine, false
	}
	return placed[n], true
}

// RoundStats quantifies one scheduling round.
type RoundStats struct {
	Pool        PoolResult
	UpdateTime  time.Duration // graph update (two traversals, §6.3)
	ExtractTime time.Duration // placement extraction (Listing 1)
	Tasks       int64         // tasks in the graph during the solve
	Changes     int           // graph changes applied since last round
	// Events is the number of cluster events this round's graph update
	// actually drained and folded in. The serving layer derives round
	// progress from it: a queue-depth read taken before the drain can miss
	// events that arrive in between, misclassifying a productive round as
	// idle.
	Events int
}

// AlgorithmRuntime is the solver runtime — the quantity the paper's
// "algorithm runtime" figures report.
func (st RoundStats) AlgorithmRuntime() time.Duration { return st.Pool.AlgorithmTime }

// Schedule drains cluster events, updates the flow network, runs the solver
// pool and extracts placements. It does not touch cluster state beyond the
// journal swap of the event drain — in particular, the solver
// pool runs on the scheduler's own graph under no cluster lock. Call
// ApplyRound (typically after the algorithm runtime has elapsed in
// simulation time) to enact the decisions.
//
// Crash replay folds a journaled round's recorded event batches with
// GraphManager.ApplyEvents first and then calls Schedule, whose own drain
// finds nothing left: the graph sees exactly the event groupings the live
// run saw, and everything after the fold runs the live code.
func (s *Scheduler) Schedule(now time.Duration) (*Round, error) {
	t0 := time.Now()
	nevents := s.gm.ApplyClusterEvents()
	s.gm.UpdateRound(now)
	updateTime := time.Since(t0)

	changes := s.gm.Changes()
	nchanges := changes.Len()
	res, err := s.pool.Solve(s.gm.Graph(), changes)
	changes.Reset()
	if err != nil {
		return nil, err
	}

	t1 := time.Now()
	r := s.gm.ExtractRound()
	r.Stats = RoundStats{
		Pool:        res,
		UpdateTime:  updateTime,
		ExtractTime: time.Since(t1),
		Tasks:       s.gm.NumTasks(),
		Changes:     nchanges,
		Events:      nevents,
	}
	return &r, nil
}

// UpdateOnly folds pending cluster events into the flow network and runs
// the per-round graph update WITHOUT solving — the template fast path uses
// it for rounds whose every placement came from the cache, so the graph
// absorbs the round's state changes (template-placed tasks enter as
// running) at memory speed. The next real solve warm-starts from the flow
// and potentials left on the graph, so nothing else needs carrying; the
// change count is not reset, and that solve reports the changes of every
// round since the last one. It returns the number of events folded in.
func (s *Scheduler) UpdateOnly(now time.Duration) int {
	n := s.gm.ApplyClusterEvents()
	s.gm.UpdateRound(now)
	return n
}

// ApplyStats counts the actions ApplyRound performed.
type ApplyStats struct {
	Placed      int
	Migrated    int
	Preempted   int
	Unscheduled int // pending tasks left waiting
	Stale       int // decisions skipped because state moved on
}

// DecisionKind classifies one enacted scheduling action.
type DecisionKind uint8

// Decision kinds.
const (
	DecisionPlaced DecisionKind = iota
	DecisionMigrated
	DecisionPreempted
)

// String returns a short name for the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionPlaced:
		return "placed"
	case DecisionMigrated:
		return "migrated"
	case DecisionPreempted:
		return "preempted"
	default:
		return "unknown"
	}
}

// Decision is one enacted action of a scheduling round: the serving layer
// publishes these to placement subscribers and journals them for replay.
type Decision struct {
	Task    cluster.TaskID
	Kind    DecisionKind
	Machine cluster.MachineID // destination for Placed/Migrated, InvalidMachine otherwise

	// Job and SubmitTime are resolved from the task record BEFORE the
	// decision mutates cluster state. Consumers that need them (placement
	// latency accounting, journal records) must not look the task up again
	// afterwards: a completion racing in the same drain batch can remove
	// the record between enactment and lookup, which used to zero the
	// published latency.
	Job        cluster.JobID
	SubmitTime time.Duration
}

// ApplyRound enacts a round's decisions against the cluster at virtual time
// now: placements for pending tasks, migrations for running tasks mapped
// elsewhere, and preemptions for running tasks the flow left unscheduled.
// Decisions that no longer apply (task completed meanwhile, machine gone)
// are skipped — exactly the staleness a flow-based scheduler exhibits when
// cluster state changes during a long solver run (paper §7.3).
func (s *Scheduler) ApplyRound(r *Round, now time.Duration) ApplyStats {
	return s.ApplyRoundRecorded(r, now, nil)
}

// ApplyRoundRecorded is ApplyRound with a decision callback: rec (if
// non-nil) is invoked once per enacted action, in deterministic task-ID
// order, before the method returns. It walks only the tasks that can yield
// a decision (GraphManager.applyCandidates) — every task while an eviction
// may have moved one since the graph update — and reads each one's
// decision from the node-indexed placement table, so a steady round
// allocates nothing and touches few task records.
//
//firmament:hotpath
func (s *Scheduler) ApplyRoundRecorded(r *Round, now time.Duration, rec func(Decision)) ApplyStats {
	var st ApplyStats
	placed := s.gm.placements(r)
	// Deterministic application order.
	tasks := s.gm.applyCandidates(placed)

	// Preemptions and migrations first so their slots free up for
	// placements within the same round.
	for _, tr := range tasks {
		id := tr.id
		t := s.cl.Task(id)
		if t == nil || t.State != cluster.TaskRunning {
			continue
		}
		// Capture decision metadata before any mutation: the record's
		// lifecycle fields can change (or the record vanish from callers'
		// view) once the cluster is touched.
		job, submitted := t.Job, t.SubmitTime
		want := placed[tr.node]
		switch {
		case want == cluster.InvalidMachine:
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
	for _, tr := range tasks {
		id := tr.id
		t := s.cl.Task(id)
		if t == nil || t.State != cluster.TaskPending {
			continue
		}
		job, submitted := t.Job, t.SubmitTime
		want := placed[tr.node]
		if want == cluster.InvalidMachine {
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

// ApplyDecisions force-applies a recorded decision list — the replay path's
// counterpart of ApplyRoundRecorded. Instead of deriving actions from a
// solver round, it enacts exactly the journaled actions, so a replayed
// cluster transitions through the same states the live run did even if the
// replayed solve would have chosen differently (the speculative solver race
// of §6.1 is timing-dependent; the journal is the ground truth). Decisions
// that cannot be applied count as stale.
func (s *Scheduler) ApplyDecisions(ds []Decision, now time.Duration) ApplyStats {
	var st ApplyStats
	for _, d := range ds {
		var err error
		switch d.Kind {
		case DecisionPlaced:
			err = s.cl.Place(d.Task, d.Machine, now)
		case DecisionMigrated:
			if err = s.cl.Preempt(d.Task, now); err == nil {
				err = s.cl.Place(d.Task, d.Machine, now)
			}
		case DecisionPreempted:
			err = s.cl.Preempt(d.Task, now)
		}
		if err != nil {
			st.Stale++
			continue
		}
		switch d.Kind {
		case DecisionPlaced:
			st.Placed++
		case DecisionMigrated:
			st.Migrated++
		case DecisionPreempted:
			st.Preempted++
		}
	}
	return st
}

// RunOnce is Schedule + ApplyRound at the same instant — the zero-latency
// convenience used by tests, examples, and non-simulated deployments.
func (s *Scheduler) RunOnce(now time.Duration) (RoundStats, ApplyStats, error) {
	r, err := s.Schedule(now)
	if err != nil {
		return RoundStats{}, ApplyStats{}, err
	}
	ap := s.ApplyRound(r, now)
	return r.Stats, ap, nil
}
