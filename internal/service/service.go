// Package service is Firmament's long-running serving layer: a
// concurrency-safe scheduling service that wraps the one-shot core.Scheduler
// into the continuously running deployment of the paper (Fig. 2b).
//
// # Front door
//
// Many goroutines submit jobs, report task completions, and add or remove
// machines through the service's front door. Job submissions take the fast
// path straight into the cluster tables: each takes the cluster's table
// lock once and surfaces to the scheduler through the cluster's
// append-only event journal. Mutations that must be enacted by the
// scheduling loop (completions, machine changes) pass through one
// ingestion queue; they accumulate while a solver round is in flight and
// the round start drains them with one buffer swap, preserving the
// one-batch-per-round coalescing semantics of the paper.
//
// # Lock-decoupled rounds
//
// A dedicated scheduling loop paces rounds: each round drains the op
// queue, folds the cluster's event journal into the flow network (the
// table lock is held only for a buffer swap, never while the graph
// mutates), and then runs the speculative solver pool on the scheduler's
// own graph under no cluster lock at all — an arbitrarily long solve never
// blocks a submitter. The loop publishes every enacted decision to Watch
// subscribers and accumulates per-round metrics (queue depth, batch size,
// algorithm runtime, placement latency percentiles) via internal/metrics.
//
// # Backpressure
//
// With Config.MaxPendingFactor set, the front door refuses work once the
// pending backlog exceeds that multiple of the cluster's healthy slots:
// Submit returns ErrBacklogged (callers shed or retry), and SubmitWait
// blocks until the backlog drains or the service closes. The pending count
// is an atomic counter, so the admission check costs no lock.
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/metrics"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// ErrClosed is returned by front-door methods after Close (or after the
// scheduling loop has died on a solver error).
var ErrClosed = errors.New("service: scheduler service is closed")

// ErrBacklogged is returned by Submit when the pending backlog exceeds
// Config.MaxPendingFactor times the cluster's healthy slots. The caller
// may shed the job, retry later, or use SubmitWait to block until the
// scheduler catches up.
var ErrBacklogged = errors.New("service: pending backlog exceeds configured limit")

// Config configures the serving layer (the solver configuration lives in
// core.Config).
type Config struct {
	// RoundInterval is the minimum gap between scheduling round starts
	// (round pacing). Shorter intervals reduce placement latency; longer
	// intervals batch more events per round. Default 1ms.
	RoundInterval time.Duration
	// MaxPendingFactor enables front-door backpressure: once the cluster's
	// pending-task count exceeds MaxPendingFactor × TotalSlots, Submit
	// returns ErrBacklogged and SubmitWait blocks. Zero (the default)
	// disables backpressure. The bound is soft: concurrent submissions
	// that pass the admission check together may overshoot it by a few
	// jobs.
	MaxPendingFactor float64
	// Templates enables the placement-template fast path
	// (internal/template): solver decisions for recurring job shapes are
	// cached and, after an O(tasks) validation against live machine state,
	// committed without a solve. Takes effect only when the policy opts in
	// by implementing template.Signer — see docs/templates.md for the
	// equivalence contract.
	Templates bool
}

// idleInterval caps the exponential backoff between rounds that make no
// progress: when tasks stay pending but no events arrive, the loop keeps
// re-solving (wait costs grow with time, so decisions can still change —
// the paper's continuous rescheduling) but decays from RoundInterval toward
// this ceiling (or RoundInterval, if longer) instead of burning a core on
// identical solves.
const idleInterval = 100 * time.Millisecond

// subscriberBuffer is the per-subscriber channel capacity. Publishing never
// blocks the round loop, so a subscriber that falls more than a full buffer
// behind loses events (counted in Stats.WatchDropped); 65536 placements is
// over a second of the in-process loop's output.
const subscriberBuffer = 65536

func (c Config) withDefaults() Config {
	if c.RoundInterval <= 0 {
		c.RoundInterval = time.Millisecond
	}
	return c
}

// Placement is one enacted scheduling decision, published to Watch
// subscribers after the round that enacted it.
type Placement struct {
	Task    cluster.TaskID
	Job     cluster.JobID
	Kind    core.DecisionKind
	Machine cluster.MachineID // destination for Placed/Migrated
	Round   uint64
	// Latency is submission → placement for DecisionPlaced events (zero
	// for migrations and preemptions).
	Latency time.Duration
}

// opKind classifies a queued ingestion operation.
type opKind uint8

const (
	opComplete opKind = iota
	opRemoveMachine
	opRestoreMachine
)

// op is one queued front-door mutation awaiting the next round. seq is the
// op's journal sequence number (its intent record) when the service is
// durable, zero otherwise; round records cite it so recovery can tell
// enacted ops from still-pending ones.
type op struct {
	kind    opKind
	task    cluster.TaskID
	machine cluster.MachineID
	seq     uint64
}

// Service is a long-running, concurrency-safe scheduling service.
type Service struct {
	cl    *cluster.Cluster
	sched *core.Scheduler
	cfg   Config
	start time.Time

	// The batched ingestion queue: a mutex-guarded MPSC slice the loop
	// swap-drains at round start. The drained slice is kept as opSpare and
	// becomes the queue again at the next drain, so steady state allocates
	// nothing.
	opMu      sync.Mutex
	ops       []op
	opSpare   []op
	opsQueued atomic.Int64
	// tmplQueue holds the jobs submitted since the last template admission
	// (template.go), guarded by opMu; admitTemplates swap-drains it.
	tmplQueue []cluster.JobID

	kick chan struct{} // wakes the loop; capacity 1, sends never block

	// Backpressure: SubmitWait parks here; the loop broadcasts after every
	// round (placements drain the backlog) and Close wakes everyone.
	bpMu   sync.Mutex
	bpCond *sync.Cond

	subMu   sync.Mutex
	subs    map[int]chan Placement
	nextSub int

	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once
	closed   atomic.Bool
	// closeMu pauses the front door. Submit and enqueue hold the read side
	// while they re-check closed, journal and register work; every
	// closed.Store(true) and every snapshot cut happens under the write
	// side. Without it, a submitter that passed the entry check could
	// register a job after the loop exited — handing the caller a handle
	// that will never be scheduled — and a snapshot could be cut between a
	// record's append and its registration.
	closeMu sync.RWMutex

	// Durability (nil/zero when the service is not durable — New). The
	// journal and its scratch buffers are written by the front door
	// (submit/intent records) and the scheduling goroutine (round records,
	// snapshots); see journal.go and recovery.go.
	jrn *wal.Log
	dur DurabilityConfig
	// rec is the loop-owned state of the round in flight, kept as its
	// journal image and reset each round. Template deltas and counter
	// deltas are always filled in; the ops, the event batches (captured
	// by the GraphManager's EventTap) and the solver decisions only when
	// a journal is attached.
	rec           roundRecord
	recEnc        wal.Enc // journalRound's encode buffer, reused every round
	lastSnapRound int64
	closeJrn      sync.Once
	closeErr      error

	// Test hooks (nil in production): testHookSubmit runs at the top of
	// submit, before the close guard; testHookBeforeSchedule runs in
	// runRound between the op drain and the scheduling computation. Both
	// widen race windows deterministically for regression tests.
	// testHookNow replaces the virtual clock (crash-recovery equivalence
	// tests drive twin services with identical timestamps).
	testHookSubmit         func()
	testHookBeforeSchedule func()
	testHookNow            func() time.Duration

	// statusMu guards runErr, the loop's fatal error (a fail-stop WAL
	// failure's included), healthCause, the error that degraded the
	// service, and every write of health: degraded implies a cause.
	statusMu    sync.Mutex
	runErr      error
	healthCause error

	// Disk-fault tolerance (health.go): health holds a HealthState; while
	// Degraded the front door skips journaling and the loop probes the disk
	// every ProbeInterval, re-arming durability when it heals. Loop-owned:
	// lastProbe paces probes; probeTimer, pending until probeWakeAt, is the
	// one wake armed for the next, and probeArms counts its arms.
	health      atomic.Int32
	lastProbe   time.Time
	probeTimer  *time.Timer
	probeWakeAt time.Time
	probeArms   int

	// ctr holds the counters the scheduling loop alone writes (restore and
	// replay write them before the loop starts), dist the samples it took
	// since their last exposure. exposeCounters copies ctr to pub and moves
	// dist into pubDist under pubMu once a round's accounting is done and
	// again when the round ends, so Stats never sees half a round.
	ctr     Counters
	dist    dists
	pubMu   sync.Mutex
	pub     Counters
	pubDist dists
	// Front-door counters (atomics: written from any goroutine).
	submitted  atomic.Int64
	refused    atomic.Int64
	walRetries atomic.Int64

	// tmpl is the placement-template fast path state (nil when disabled or
	// when the policy does not implement template.Signer). See template.go.
	tmpl *tmplState
}

// dists is one set of the per-round distributions Stats reports.
type dists struct {
	queueDepth, batchSize, algoRuntime, roundTime, placementLatency metrics.Dist
}

// New builds a scheduling service over cl with the given policy and solver
// configuration and starts its scheduling loop. Call Close to stop it.
func New(cl *cluster.Cluster, model policy.CostModel, schedCfg core.Config, cfg Config) *Service {
	s := newService(cl, model, schedCfg, cfg)
	go s.loop()
	return s
}

// newService builds the service without starting the scheduling loop.
// Tests drive rounds by hand through runRound; production code uses New.
func newService(cl *cluster.Cluster, model policy.CostModel, schedCfg core.Config, cfg Config) *Service {
	return newServiceWith(cl, core.NewScheduler(cl, model, schedCfg), cfg)
}

// newServiceWith wraps an existing scheduler — freshly built (newService)
// or restored from a durable snapshot (Open).
func newServiceWith(cl *cluster.Cluster, sched *core.Scheduler, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cl:     cl,
		sched:  sched,
		cfg:    cfg,
		start:  time.Now(),
		kick:   make(chan struct{}, 1),
		subs:   make(map[int]chan Placement),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	s.bpCond = sync.NewCond(&s.bpMu)
	if cfg.Templates {
		s.tmpl = newTmplState(sched.GraphManager().CostModel())
	}
	return s
}

// Scheduler exposes the wrapped scheduler (experiments tune its pool).
// Touch it only before submitting work or after Close.
func (s *Service) Scheduler() *core.Scheduler { return s.sched }

// now is the service's virtual clock: time since construction (shifted
// after a restore so recorded timestamps stay in the past). The cluster
// never reads a wall clock, so the service feeds it this monotonic offset.
func (s *Service) now() time.Duration {
	if s.testHookNow != nil {
		return s.testHookNow()
	}
	return time.Since(s.start)
}

// attachJournal makes the service durable: front-door mutations and rounds
// are journaled from here on. Must run before the scheduling loop starts.
func (s *Service) attachJournal(log *wal.Log, dur DurabilityConfig) {
	s.jrn = log
	s.dur = dur
	s.sched.GraphManager().EventTap = func(b []cluster.Event) {
		s.rec.batches = append(s.rec.batches, slices.Clone(b))
	}
}

// backlogLimit returns the admission ceiling on pending tasks, or 0 when
// backpressure is disabled.
func (s *Service) backlogLimit() int {
	if s.cfg.MaxPendingFactor <= 0 {
		return 0
	}
	limit := int(s.cfg.MaxPendingFactor * float64(s.cl.TotalSlots()))
	if limit < 1 {
		limit = 1
	}
	return limit
}

// backlogged reports whether the pending backlog exceeds the configured
// admission ceiling. Two atomic loads; no lock.
func (s *Service) backlogged() bool {
	limit := s.backlogLimit()
	return limit > 0 && s.cl.NumPending() > limit
}

// Submit registers a job with one task per spec and wakes the scheduling
// loop. It is safe to call from any goroutine; the returned job's ID and
// task IDs are immediately valid, while placement happens asynchronously
// (watch for Placement events). The job's submission events coalesce with
// all others that arrive before the next round. When backpressure is
// configured and the pending backlog exceeds the ceiling, Submit returns
// ErrBacklogged without registering anything; SubmitWait blocks instead.
func (s *Service) Submit(class cluster.JobClass, priority int, specs []cluster.TaskSpec) (*cluster.Job, error) {
	if s.closed.Load() {
		return nil, s.closedErr()
	}
	if s.backlogged() {
		s.refused.Add(1)
		return nil, ErrBacklogged
	}
	return s.submit(class, priority, specs)
}

// SubmitWait is Submit that blocks while the service is backlogged instead
// of returning ErrBacklogged: it parks until the scheduler has drained the
// pending backlog below the ceiling, then submits. It returns ErrClosed if
// the service closes while waiting.
func (s *Service) SubmitWait(class cluster.JobClass, priority int, specs []cluster.TaskSpec) (*cluster.Job, error) {
	return s.SubmitWaitCtx(context.Background(), class, priority, specs)
}

// SubmitWaitCtx is SubmitWait bounded by a context: if ctx ends while the
// call is parked on the backlog, it returns ctx's error without submitting.
// A network front door passes the request context here so an abandoned
// connection releases its parked handler instead of submitting an orphan
// job nobody owns once the backlog drains.
func (s *Service) SubmitWaitCtx(ctx context.Context, class cluster.JobClass, priority int, specs []cluster.TaskSpec) (*cluster.Job, error) {
	if done := ctx.Done(); done != nil {
		// Wake the condition wait when the context ends; the loop below
		// re-checks ctx before anything else.
		stop := context.AfterFunc(ctx, func() {
			s.bpMu.Lock()
			s.bpCond.Broadcast()
			s.bpMu.Unlock()
		})
		defer stop()
	}
	s.bpMu.Lock()
	counted := false // one blocked call is one delayed admission, however many wakeups re-check
	for {
		if err := ctx.Err(); err != nil {
			s.bpMu.Unlock()
			return nil, err
		}
		if s.closed.Load() {
			s.bpMu.Unlock()
			return nil, s.closedErr()
		}
		if !s.backlogged() {
			break
		}
		if !counted {
			s.refused.Add(1)
			counted = true
		}
		s.bpCond.Wait()
	}
	s.bpMu.Unlock()
	return s.submit(class, priority, specs)
}

func (s *Service) submit(class cluster.JobClass, priority int, specs []cluster.TaskSpec) (*cluster.Job, error) {
	if s.testHookSubmit != nil {
		s.testHookSubmit()
	}
	// Re-check closed under the read guard: Close (and loop death) store
	// closed under the write side, so a submitter that gets past this check
	// finishes registering before the closed transition completes — no job
	// can land in the cluster after the service reports itself closed.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return nil, s.closedErr()
	}
	// Durable order: reserve the ID, journal the submission under it, then
	// register it. Snapshots are cut under closeMu's write side, so none
	// falls between this append and the registration: recovery either finds
	// the job in the snapshot or replays this record — never neither. With
	// no journal, or with durability degraded after a WAL failure (Health
	// says so loudly), the job registers volatile: the ack carries no
	// persistence.
	now := s.now()
	id := s.cl.AllocJobID()
	durable := s.jrn != nil && !s.degradedNow()
	var seq uint64
	if durable {
		var e wal.Enc
		encodeSubmitRecord(&e, id, class, priority, now, specs)
		var err error
		if seq, err = s.jrn.Append(e.B); err != nil {
			// A failed append may have torn the buffered frame; no in-place
			// retry can mend it (the re-arm reopen does). Fail-stop surfaces
			// the fault; degrade keeps the job, volatile.
			if !s.walFailure(err) {
				return nil, err
			}
			durable = false
		}
	}
	job := s.cl.SubmitJobWithID(id, class, priority, now, specs)
	s.noteTemplateCandidate(job.ID)
	s.submitted.Add(int64(len(specs)))
	s.wake()
	if !durable {
		return job, nil
	}
	// The fsync-under-closeMu waiver of old lives on: closeMu.RLock is the
	// close membrane, not a data lock, and the ack's fsync must complete
	// before Close can tear down the log. Transient sync errors (EINTR,
	// EAGAIN) retry with bounded backoff before the failure policy weighs
	// in.
	if err := s.retryWAL(func() error { return s.jrn.SyncTo(seq) }); err != nil {
		if !s.walFailure(err) {
			// Fail-stop: the job is registered and will be scheduled until
			// the loop notices, but its durability ack failed — surface the
			// disk fault to the caller.
			return nil, err
		}
		// Degraded: the job is registered and scheduling continues; the
		// caller sees success but Health reports the ack was volatile.
	}
	return job, nil
}

// Complete reports that a running task finished. The completion is queued
// and enacted at the next round start.
func (s *Service) Complete(id cluster.TaskID) error {
	return s.enqueue(op{kind: opComplete, task: id})
}

// RemoveMachine queues a machine failure: at the next round start the
// machine's tasks are evicted back to pending and its slots leave the flow
// network.
func (s *Service) RemoveMachine(id cluster.MachineID) error {
	if id < 0 || int(id) >= s.cl.NumMachines() {
		return fmt.Errorf("service: unknown machine %d", id)
	}
	return s.enqueue(op{kind: opRemoveMachine, machine: id})
}

// RestoreMachine queues the return of a failed machine.
func (s *Service) RestoreMachine(id cluster.MachineID) error {
	if id < 0 || int(id) >= s.cl.NumMachines() {
		return fmt.Errorf("service: unknown machine %d", id)
	}
	return s.enqueue(op{kind: opRestoreMachine, machine: id})
}

func (s *Service) enqueue(o op) error {
	// Same close guard as submit: an op accepted with a nil error must have
	// been enqueued before the closed transition, never silently dropped by
	// a loop that already exited.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return s.closedErr()
	}
	if s.jrn != nil && !s.degradedNow() {
		// Journal the intent before queueing: an acknowledged op survives a
		// crash even if no round ever drained it (recovery re-queues it).
		// On a WAL failure the op is either refused (fail-stop) or queued
		// volatile with seq 0 (degrade) — the re-arm restamps it.
		var e wal.Enc
		encodeIntentRecord(&e, o)
		seq, err := s.jrn.Append(e.B)
		if err != nil {
			if !s.walFailure(err) {
				return err
			}
		} else {
			o.seq = seq
			// closeMu.RLock is the close membrane, not a data lock: the
			// ack's fsync must complete before Close can tear down the log.
			if err := s.retryWAL(func() error { return s.jrn.SyncTo(seq) }); err != nil {
				if !s.walFailure(err) {
					return err
				}
				// The record may be torn on disk; queue the op volatile so
				// the re-arm gives it a fresh, whole intent record.
				o.seq = 0
			}
		}
	}
	s.opMu.Lock()
	s.ops = append(s.ops, o)
	s.opMu.Unlock()
	s.opsQueued.Add(1)
	s.wake()
	return nil
}

// drainOps swap-drains the op queue — one short critical section, no
// allocation in steady state — and returns the ops in acceptance order.
// The batch stays valid until the next drain, which reuses it as the
// queue. Only the scheduling loop calls it.
func (s *Service) drainOps() []op {
	s.opMu.Lock()
	ops := s.ops
	s.ops = s.opSpare[:0]
	s.opSpare = ops
	s.opMu.Unlock()
	if n := len(ops); n > 0 {
		s.opsQueued.Add(int64(-n))
	}
	return ops
}

// wakeWaiters broadcasts to parked SubmitWait callers. The broadcast is
// issued under bpMu: a waiter between its condition check and Wait still
// holds bpMu, so the broadcast cannot land inside that window and be lost
// — without the lock, a final broadcast (Close, loop death, or the last
// round before the loop goes idle) could slip past a waiter about to
// park, stranding it forever.
func (s *Service) wakeWaiters() {
	s.bpMu.Lock()
	s.bpCond.Broadcast()
	s.bpMu.Unlock()
}

// wake nudges the scheduling loop without blocking.
func (s *Service) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Watch subscribes to placement decisions. Every subscriber receives every
// Placement published after the call. The returned cancel function
// unsubscribes and closes the channel; Close also closes it.
func (s *Service) Watch() (<-chan Placement, func()) {
	ch := make(chan Placement, subscriberBuffer)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	if s.closed.Load() && s.subs == nil {
		// Closed and channels already torn down: hand back a closed chan.
		s.subMu.Unlock()
		close(ch)
		return ch, func() {}
	}
	s.subs[id] = ch
	s.subMu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			s.subMu.Lock()
			if s.subs != nil {
				if _, ok := s.subs[id]; ok {
					delete(s.subs, id)
					close(ch)
				}
			}
			s.subMu.Unlock()
		})
	}
}

// Close stops the scheduling loop, waits for the in-flight round to finish,
// and closes all subscriber channels. It returns the loop's fatal error, if
// any. Close is idempotent, and wakes any SubmitWait callers with ErrClosed.
func (s *Service) Close() error {
	s.stopOnce.Do(func() {
		// The write lock waits out every in-flight submit/enqueue holding
		// the read side: once it is acquired, no front-door registration
		// straddles the closed transition, and everything registered before
		// it happened-before the loop's exit.
		s.closeMu.Lock()
		s.closed.Store(true)
		s.closeMu.Unlock()
		close(s.stopCh)
	})
	s.wakeWaiters() // unpark SubmitWait callers
	<-s.doneCh
	if s.jrn != nil {
		s.closeJrn.Do(func() {
			// A clean shutdown cuts a final snapshot (the front door is
			// closed and the loop has exited, so it captures everything) and
			// trims the log; after a loop death the WAL alone is the
			// consistent truth — the dying round never journaled, so its
			// partial effects must not be snapshot. A degraded close skips
			// the snapshot too — the disk is sick and the volatile window
			// was never promised durable.
			degraded := s.degradedNow()
			if s.Err() == nil && !degraded {
				s.closeErr = s.snapshot()
			}
			if err := s.jrn.Close(); err != nil && s.closeErr == nil && !degraded {
				s.closeErr = err
			}
		})
	}
	s.subMu.Lock()
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	s.subs = nil
	s.subMu.Unlock()
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	if s.runErr != nil {
		return s.runErr
	}
	return s.closeErr
}

// Err returns the scheduling loop's fatal error, if it has died.
func (s *Service) Err() error {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	return s.runErr
}

// loop is the dedicated scheduling goroutine: wait for work, pace rounds,
// schedule, apply, publish.
func (s *Service) loop() {
	defer close(s.doneCh)
	defer s.wakeWaiters() // loop death must not strand SubmitWait callers
	var lastRound time.Time
	idleRounds := 0
	pacing := time.NewTimer(0)
	if !pacing.Stop() {
		<-pacing.C
	}
	for {
		// Wait for work (or shutdown).
		select {
		case <-s.stopCh:
			return
		case <-s.kick:
		}
		// Round pacing: at most one round start per RoundInterval.
		if wait := s.cfg.RoundInterval - time.Since(lastRound); wait > 0 {
			pacing.Reset(wait)
			select {
			case <-s.stopCh:
				pacing.Stop()
				return
			case <-pacing.C:
			}
		}
		lastRound = time.Now()
		progress, err := s.runRound()
		if err != nil {
			s.statusMu.Lock()
			// A front-door walFailure under WALFailStop may have recorded
			// the cause already; the first error wins.
			if s.runErr == nil {
				s.runErr = fmt.Errorf("service: scheduling round %d: %w", s.ctr.Rounds, err)
			}
			s.statusMu.Unlock()
			s.closeMu.Lock() // same guarded transition as Close
			s.closed.Store(true)
			s.closeMu.Unlock()
			return
		}
		// A round's placements drain the pending backlog: let any parked
		// SubmitWait callers re-check the admission ceiling.
		s.wakeWaiters()
		// More work already waiting (ops queued, events logged, or tasks
		// still pending placement): keep going, pacing bounds the rate.
		// Rounds that neither folded in events nor enacted decisions back
		// off exponentially toward idleInterval — tasks stuck pending on a
		// saturated cluster still get re-evaluated as their wait costs
		// grow, without a core-burning solve every RoundInterval. A new
		// front-door event kicks the loop immediately regardless.
		if s.pendingWork() {
			if progress {
				idleRounds = 0
				s.wake()
			} else {
				idleRounds++
				delay := s.cfg.RoundInterval << min(idleRounds, 16)
				if ceiling := max(idleInterval, s.cfg.RoundInterval); delay > ceiling || delay <= 0 {
					delay = ceiling
				}
				time.AfterFunc(delay, s.wake)
			}
		} else {
			idleRounds = 0
		}
	}
}

// pendingWork reports whether another round would have anything to do.
// Three atomic loads; no locks.
func (s *Service) pendingWork() bool {
	return s.opsQueued.Load() > 0 || s.cl.NumQueuedEvents() > 0 || s.cl.NumPending() > 0
}

// runRound drains the ingestion queues, runs one scheduling computation,
// and applies and publishes its decisions. It reports whether the round
// made progress (folded in events or enacted decisions). The solve inside
// sched.Schedule runs on the scheduler's own graph under no cluster lock:
// submitters keep landing jobs while it runs, and their events coalesce
// into the next round's batch.
//
// The round writes its outcome into s.rec as it goes and is built from the
// four stages crash replay shares (enactOp, foldAndSolve,
// cluster.RetireDone, accountRound).
// What stays here is what only a live round does: drain the queues, admit
// and record templates, apply the solver's decisions, journal, publish.
func (s *Service) runRound() (progress bool, err error) {
	t0 := time.Now()
	defer s.exposeCounters() // on every exit, a failed round's included
	if HealthState(s.health.Load()) == HealthFailed {
		// A front-door goroutine hit a permanent WAL failure under
		// WALFailStop and recorded it as runErr; it could not stop the loop
		// itself (it holds the close membrane's read side), so the round
		// check does.
		return false, s.Err()
	}
	if s.jrn != nil && s.degradedNow() {
		s.ctr.DegradedRounds++
		s.maybeRearm() // probe the disk; re-arm durability if it healed
	}
	// Degraded rounds run the full pipeline but journal nothing: the
	// re-arm snapshot, not the log, re-covers their effects.
	durable := s.jrn != nil && !s.degradedNow()
	rec := &s.rec
	s.ctr.Rounds++
	rec.reset(s.ctr.Rounds, s.now())
	round, now := rec.round, rec.drainNow

	// Drain the ingestion queue — one buffer swap.
	for _, o := range s.drainOps() {
		stale := s.enactOp(o, now)
		if o.kind == opRemoveMachine && !stale && s.tmpl != nil {
			// Templates that place work on the removed machine are now
			// meaningless; invalidate them eagerly. Replay applies the
			// journaled drops instead.
			n := len(rec.tmplDrops)
			rec.tmplDrops = s.tmpl.cache.InvalidateMachine(o.machine, rec.tmplDrops)
			rec.tmplInvals += uint32(len(rec.tmplDrops) - n)
		}
		if durable {
			rec.ops = append(rec.ops, enactedOp{o, stale})
		}
	}

	if s.testHookBeforeSchedule != nil {
		s.testHookBeforeSchedule()
	}

	// Template admission: commit validated cache hits for recurring jobs
	// before the round mutates the graph. Hit placements skip the solver
	// entirely; misses are remembered for post-solve recording.
	var decisions []Placement
	if s.tmpl != nil {
		decisions, err = s.admitTemplates(now, round)
		if err != nil {
			return false, err
		}
	}

	// When every pending task was just placed from the template cache,
	// skip the solve: fold events and update the graph only. The next
	// solve warm-starts from the flow and potentials left on the graph.
	rec.solved = len(decisions) == 0 || s.cl.NumPending() > 0
	r, batchEvents, err := s.foldAndSolve(rec)
	if err != nil {
		return false, err
	}
	// Batch size: cluster events the graph update actually folded in
	// (submissions logged since the last round plus the ops just applied).
	// This is the drained count reported by the update itself — a
	// queue-depth read taken before the drain would miss events that
	// arrive in the window between read and drain, and a round that folded
	// them in would be misclassified as idle, triggering exponential
	// backoff while work was actually done.
	s.dist.batchSize.Add(float64(batchEvents))
	var ap core.ApplyStats
	if r != nil {
		rec.applyNow = s.now()
		recording := s.tmpl != nil && len(s.tmpl.missCand) > 0
		if recording {
			s.tmpl.captureOccupancy(s.cl)
		}
		if decisions == nil {
			// Placements are bounded by the waiting tasks; the rare
			// preemption or migration grows the slice.
			decisions = make([]Placement, 0, s.cl.NumPending())
		}
		ap = s.sched.ApplyRoundRecorded(r, rec.applyNow, func(d core.Decision) {
			// Job and submission time come from the decision itself, resolved
			// before the cluster was mutated: looking the task up here raced
			// same-batch completions, which deleted the record and zeroed the
			// published latency.
			p := Placement{Task: d.Task, Job: d.Job, Kind: d.Kind, Machine: d.Machine,
				Round: uint64(round)}
			if d.Kind == core.DecisionPlaced {
				p.Latency = rec.applyNow - d.SubmitTime
				s.dist.placementLatency.AddDuration(p.Latency)
			}
			decisions = append(decisions, p)
			if durable {
				rec.decisions = append(rec.decisions, d)
			}
			if recording && d.Kind == core.DecisionPlaced {
				s.tmpl.applied = append(s.tmpl.applied, d)
			}
		})
		rec.staleDecisions, rec.unscheduled = uint32(ap.Stale), uint32(ap.Unscheduled)
		// Record templates for the misses the solve just placed — but only
		// when the apply performed placements alone: preemptions, migrations
		// or stale skips would make the occupancy simulation inexact.
		if recording && ap.Preempted == 0 && ap.Migrated == 0 && ap.Stale == 0 {
			s.recordTemplates(now)
		}
		s.dist.algoRuntime.AddDuration(r.Stats.AlgorithmRuntime())
	}
	// Retirement: foldAndSolve has folded the round's completion events
	// into the graph, so nothing but the cluster tables names the tasks of
	// a finished job any more. It runs after the apply, adding nothing to
	// placement latency, and before the round is journaled and published.
	// Done-ness follows from the enacted ops alone, so replay, re-enacting
	// the same ops, retires the same jobs at the same point.
	s.cl.RetireDone()
	s.accountRound(rec, r, ap)

	if durable {
		// Journal the round before publishing it: nothing becomes visible
		// to subscribers that recovery could not re-enact. A WAL failure
		// here degrades (the round happened; its record is the casualty —
		// the re-arm snapshot re-covers it) or fail-stops per policy.
		if err := s.journalRound(); err != nil {
			if !s.walFailure(err) {
				return false, err
			}
			durable = false
		}
	}

	// Expose the round before its placements go out, so a subscriber that
	// has seen a placement finds its round in Stats; WatchDropped, counted
	// as they go out, follows at the round's end.
	s.exposeCounters()
	s.publish(decisions)

	if durable && round-s.lastSnapRound >= s.dur.SnapshotEvery {
		// Pause the front door for the cut (see snapshot). The snapshot
		// carries the graph whole, flow and potentials included, so an
		// unsolved template round is as good a cut as a solved one.
		s.closeMu.Lock()
		err := s.snapshot()
		s.closeMu.Unlock()
		if err != nil && !s.walFailure(err) {
			return false, err
		}
	}

	// A degraded service must keep probing the disk even when idle: the
	// loop parks between kicks, so one wake kept pending for the next probe
	// time keeps re-arm attempts coming without any front-door traffic.
	if now := time.Now(); s.degradedNow() && !now.Before(s.probeWakeAt) {
		s.probeWakeAt = now.Add(s.dur.ProbeInterval)
		s.probeArms++
		if s.probeTimer == nil {
			s.probeTimer = time.AfterFunc(s.dur.ProbeInterval, s.wake)
		}
		s.probeTimer.Reset(s.dur.ProbeInterval)
	}

	// Queue depth: events that accumulated while this round was in flight.
	s.dist.queueDepth.Add(float64(s.cl.NumQueuedEvents()))
	s.dist.roundTime.AddDuration(time.Since(t0))
	return batchEvents > 0 || len(decisions) > 0, nil
}

// enactOp is the op stage, shared by the live round and crash replay: it
// applies one ingestion op to the cluster at now and counts the outcome.
// It reports whether the op was stale — it no longer applied, like any
// decision against moved-on state: a completion that raced a preemption
// the previous round enacted (the task went back to pending), a remove of
// an already-removed machine, a restore of a healthy one. Stale ops are
// counted rather than silently dropped, and the round record carries the
// outcome so replay can check that it reproduces.
func (s *Service) enactOp(o op, now time.Duration) (stale bool) {
	switch o.kind {
	case opComplete:
		if s.cl.Complete(o.task, now) != nil {
			s.ctr.StaleCompletions++
			return true
		}
		s.ctr.Completed++
		return false
	case opRemoveMachine:
		stale = s.cl.RemoveMachine(o.machine, now) != nil
	case opRestoreMachine:
		stale = s.cl.RestoreMachine(o.machine, now) != nil
	}
	if stale {
		s.ctr.StaleMachineOps++
	}
	return stale
}

// foldAndSolve is the graph stage, shared by the live round and crash
// replay: fold the cluster's pending events into the flow network, then
// solve — or, for an unsolved template-only round, update the graph
// without solving (r is nil then). It returns the events folded. Replay
// folds the recorded batches before calling it, so there the drain finds
// nothing.
func (s *Service) foldAndSolve(rec *roundRecord) (r *core.Round, events int, err error) {
	if !rec.solved {
		return nil, s.sched.UpdateOnly(rec.drainNow), nil
	}
	if r, err = s.sched.Schedule(rec.drainNow); err != nil {
		return nil, 0, err
	}
	return r, r.Stats.Events, nil
}

// accountRound is the accounting stage, shared by the live round and crash
// replay: it adds the round's outcome to the service counters — the
// apply's actions plus the record's template placements, the counter
// deltas the record carries (stale decisions, unscheduled tasks, template
// hits, misses and invalidations), and the solver pool's warm/full restart
// flags (r is nil for an unsolved round).
func (s *Service) accountRound(rec *roundRecord, r *core.Round, ap core.ApplyStats) {
	c := &s.ctr
	c.Placed += int64(ap.Placed + len(rec.tmplDecisions))
	c.Migrated += int64(ap.Migrated)
	c.Preempted += int64(ap.Preempted)
	c.StaleDecisions += int64(rec.staleDecisions)
	c.Unscheduled += int64(rec.unscheduled)
	c.TemplateHits += int64(rec.tmplHits)
	c.TemplateMisses += int64(rec.tmplMisses)
	c.TemplateInvalidations += int64(rec.tmplInvals)
	if r != nil && r.Stats.Pool.Incremental {
		c.SolverWarmStarts++
	}
	if r != nil && r.Stats.Pool.FullRestart {
		c.SolverFullRestarts++
	}
}

// exposeCounters makes the loop-owned counters and the samples recorded
// since the last call visible to Stats as one whole: the loop calls it
// before a round publishes and when the round ends, and restore and
// replay before they hand the service over.
func (s *Service) exposeCounters() {
	s.pubMu.Lock()
	s.pub = s.ctr
	p, d := &s.pubDist, &s.dist
	p.queueDepth.Absorb(&d.queueDepth)
	p.batchSize.Absorb(&d.batchSize)
	p.algoRuntime.Absorb(&d.algoRuntime)
	p.roundTime.Absorb(&d.roundTime)
	p.placementLatency.Absorb(&d.placementLatency)
	s.pubMu.Unlock()
}

// journalRound appends the round record for the round just enacted. The
// record is flushed to the OS always and fsynced under SyncAlways; losing an
// un-synced round record to a power cut is safe — recovery re-enacts the
// round from the intents and submits that precede it (all individually
// acknowledged), it just re-solves instead of force-applying.
func (s *Service) journalRound() error {
	// Append copies the payload into the log's buffered writer, so the
	// loop-owned buffer is free again as soon as it returns.
	s.recEnc.B = s.recEnc.B[:0]
	encodeRoundRecord(&s.recEnc, &s.rec)
	seq, err := s.jrn.Append(s.recEnc.B)
	if err != nil {
		return err
	}
	return s.retryWAL(func() error { return s.jrn.SyncTo(seq) })
}

// publish fans a round's decisions out to all subscribers. Slow subscribers
// lose events rather than stall the scheduling loop.
func (s *Service) publish(decisions []Placement) {
	if len(decisions) == 0 {
		return
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, ch := range s.subs {
		for _, p := range decisions {
			select {
			case ch <- p:
			default:
				s.ctr.WatchDropped++
			}
		}
	}
}

// Counters declares every scalar the service reports, once: Stats and the
// wire form (internal/api) embed it, and its JSON tags are the wire
// spelling of /v1/stats.
type Counters struct {
	Rounds    int64 `json:"rounds"`
	Submitted int64 `json:"submitted"`
	// Backlogged counts front-door admissions refused (Submit) or delayed
	// (SubmitWait backlog re-checks) by backpressure.
	Backlogged int64 `json:"backlogged"`
	Placed     int64 `json:"placed"`
	Migrated   int64 `json:"migrated"`
	Preempted  int64 `json:"preempted"`
	Completed  int64 `json:"completed"`
	// StaleCompletions counts queued completions that no longer applied
	// when their op drained: the task had gone back to pending (a
	// preemption the previous round enacted), or it is unknown — never
	// submitted, or completed and retired with its job.
	StaleCompletions int64 `json:"stale_completions"`
	// StaleMachineOps counts machine remove/restore ops that no longer
	// applied when their round drained them (remove of an already-removed
	// machine, restore of a healthy one).
	StaleMachineOps int64 `json:"stale_machine_ops"`
	// StaleDecisions counts round decisions skipped because cluster state
	// moved on between the solve and the apply (task finished, machine
	// failed, destination slot taken — core.ApplyStats.Stale).
	StaleDecisions int64 `json:"stale_decisions"`
	Unscheduled    int64 `json:"unscheduled"` // per-round sum of tasks left waiting
	// WatchDropped counts placement events lost to slow Watch subscribers
	// (the publish path never blocks the scheduling loop).
	WatchDropped int64 `json:"watch_dropped"`
	// SolverWarmStarts counts rounds whose incremental cost scaling run
	// completed by reusing the prior flow and potentials, and
	// SolverFullRestarts rounds whose run completed only after falling back
	// to a from-scratch solve (core.PoolResult). A round whose cost scaling
	// run relaxation stopped by winning the race counts as neither, so
	// SolverWarmStarts/Rounds is about 1 − relaxation's win share, not one
	// minus a cold-restart rate. A restored service's first rounds must not
	// fall back — that is what snapshotting the flow network buys (paper
	// Fig. 11) — so the crash-recovery smoke asserts SolverFullRestarts
	// stays zero across a restart.
	SolverWarmStarts   int64 `json:"solver_warm_starts"`
	SolverFullRestarts int64 `json:"solver_full_restarts"`
	// TemplateHits counts jobs placed entirely from the template cache
	// (internal/template) without a solve; TemplateMisses counts candidate
	// jobs that fell through to the solver (and were recorded);
	// TemplateInvalidations counts cached templates dropped because
	// machine state moved on (machine removal, failed validation, hash
	// collision). All zero when Config.Templates is off or the policy does
	// not implement template.Signer.
	TemplateHits          int64 `json:"template_hits"`
	TemplateMisses        int64 `json:"template_misses"`
	TemplateInvalidations int64 `json:"template_invalidations"`
	// WALRetries counts transient WAL errors absorbed by in-round retry;
	// DegradedRounds counts scheduling rounds run with durability off
	// after a WAL failure under WALDegrade; WALRearms counts successful
	// degraded→ok recoveries (reopened WAL plus a fresh full snapshot).
	// See docs/durability.md, fault model.
	WALRetries     int64 `json:"wal_retries"`
	DegradedRounds int64 `json:"degraded_rounds"`
	WALRearms      int64 `json:"wal_rearms"`
	// Health is the coarse health state ("ok", "degraded", "failed") and
	// FailureCause the captured reason when not ok — a stopped scheduler
	// is distinguishable from a gracefully closed one.
	Health       string `json:"health"`
	FailureCause string `json:"failure_cause,omitempty"`
	// Pending and Running are point-in-time cluster gauges (tasks).
	Pending int64 `json:"pending"`
	Running int64 `json:"running"`
}

// Stats is a point-in-time snapshot of the service's counters and
// distributions. The counters the scheduling loop writes and the
// distributions' samples are those of the last accounted round: a poll
// never sees half a round (PlacementLatency has one sample per Placed,
// BatchSize one per round), and a Watch subscriber
// that has seen a placement finds its round counted. What a round records
// as its placements go out shows at that round's end: WatchDropped, and
// the QueueDepth and RoundTime samples. WALRearms shows the moment a
// re-arm flips health to ok, mid-round.
type Stats struct {
	Counters

	// QueueDepth samples the cluster event backlog at each round end;
	// BatchSize the events folded into each round's graph update.
	QueueDepth *metrics.Dist
	BatchSize  *metrics.Dist
	// AlgorithmRuntime is the winning solver's runtime per round.
	AlgorithmRuntime *metrics.Dist
	// RoundTime is the full round wall time (drain + update + solve +
	// extract + apply + publish).
	RoundTime *metrics.Dist
	// PlacementLatency is submission → placement per task.
	PlacementLatency *metrics.Dist
}

// Cluster returns the cluster state the service schedules over. Open and
// Replay construct or restore the cluster internally, so this is how their
// callers reach it.
func (s *Service) Cluster() *cluster.Cluster { return s.cl }

// Stats returns a consistent snapshot; safe to call from any goroutine.
// The loop-owned counters and distributions come from the last finished
// round, copied under one lock hold; the front-door counters, health and
// gauges are read now.
func (s *Service) Stats() Stats {
	s.pubMu.Lock()
	st := Stats{
		Counters:         s.pub,
		QueueDepth:       s.pubDist.queueDepth.Clone(),
		BatchSize:        s.pubDist.batchSize.Clone(),
		AlgorithmRuntime: s.pubDist.algoRuntime.Clone(),
		RoundTime:        s.pubDist.roundTime.Clone(),
		PlacementLatency: s.pubDist.placementLatency.Clone(),
	}
	s.pubMu.Unlock()
	c := &st.Counters
	c.Submitted = s.submitted.Load()
	c.Backlogged = s.refused.Load()
	c.WALRetries = s.walRetries.Load()
	h := s.Health()
	c.Health, c.FailureCause = h.State.String(), h.Cause
	c.Pending, c.Running = int64(s.cl.NumPending()), int64(s.cl.NumRunning())
	return st
}
