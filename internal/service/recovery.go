package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// DurabilityConfig configures the durable event journal.
type DurabilityConfig struct {
	// Dir is the journal directory (segments + snapshots). Required.
	Dir string
	// Sync selects the fsync policy for front-door acknowledgements:
	// SyncAlways fsyncs before every ack (group-committed), SyncBatch
	// fsyncs on the log's own 50ms timer, SyncNone leaves it to the OS.
	// All policies flush to the OS before acking, so a killed process — as
	// opposed to a lost power supply — loses nothing acknowledged.
	Sync wal.SyncPolicy
	// SnapshotEvery cuts a cluster+graph snapshot every that many rounds,
	// after which older log segments become collectable. Default 1024.
	SnapshotEvery int64
	// SegmentBytes overrides the WAL segment size (testing).
	SegmentBytes int64
	// OnWALFailure selects the response to a permanent WAL error:
	// WALFailStop (default) stops the service with the cause captured;
	// WALDegrade keeps scheduling volatile, probes the disk, and re-arms
	// durability once it heals. See docs/durability.md, fault model.
	OnWALFailure WALFailurePolicy
	// ProbeInterval paces degraded-mode disk probes (re-arm attempts).
	// Default 1s.
	ProbeInterval time.Duration
	// FS overrides the filesystem the journal reads and writes through.
	// Nil means the real one; tests inject faults (internal/faultfs).
	FS wal.FS
}

func (d DurabilityConfig) withDefaults() DurabilityConfig {
	if d.SnapshotEvery <= 0 {
		d.SnapshotEvery = 1024
	}
	if d.ProbeInterval <= 0 {
		d.ProbeInterval = time.Second
	}
	return d
}

// Options configures Open: a durable service built either fresh or from the
// journal directory's latest snapshot plus log tail.
type Options struct {
	// Topology shapes a freshly built cluster. Ignored when a snapshot is
	// restored — the snapshot carries its own topology.
	Topology cluster.Topology
	// Model builds the scheduling policy over the (fresh or restored)
	// cluster. It must construct the same policy the journal was written
	// under: the snapshot's flow network encodes its decisions.
	Model func(*cluster.Cluster) policy.CostModel
	// Scheduler and Service configure the solver and serving layer.
	Scheduler core.Config
	Service   Config
	// Durability configures the journal itself.
	Durability DurabilityConfig
}

// RestoreInfo reports what Open recovered.
type RestoreInfo struct {
	// Restored is true when a snapshot was loaded (as opposed to a fresh
	// or empty journal directory).
	Restored bool
	// SnapshotRound is the round count the loaded snapshot was cut at.
	SnapshotRound int64
	// ReplayedRecords and ReplayedRounds count the log tail: records
	// decoded past the snapshot's low-water mark, and full scheduling
	// rounds re-enacted.
	ReplayedRecords int
	ReplayedRounds  int
	// PendingOps is the number of accepted-but-unenacted ops re-queued for
	// the first post-restore round.
	PendingOps int
	// RunningTasks and PendingTasks describe the recovered cluster.
	RunningTasks int
	PendingTasks int
}

// snapRetain is how many snapshots TruncateBefore keeps.
const snapRetain = 2

// snapMetaVersion 2 added the template counters to the meta section and a
// fourth snapshot section carrying the template cache; version-1 snapshots
// (pre-template) still restore, with an empty cache. Version 3 appended the
// journal cut (snapCut) to the meta section. Snapshots older than that were
// written before jobs retired, so they hold every job their cut had
// registered and replay's "register if absent" rule suffices for them.
const snapMetaVersion = 3

// Open builds a durable service: it opens (or creates) the write-ahead
// journal in opts.Durability.Dir, restores the latest snapshot if one
// exists, replays the log tail to re-enact everything acknowledged after
// it, and only then starts the scheduling loop — warm: the restored flow
// network carries the previous run's flow and potentials, so the first
// round's incremental solver run starts from them instead of from scratch.
func Open(opts Options) (*Service, *RestoreInfo, error) {
	s, info, err := buildFromJournal(opts, false)
	if err == nil {
		go s.loop()
		s.wake() // recovered pending work (tasks, ops, queued events) needs a round
	}
	return s, info, err
}

// Replay rebuilds a service from a recorded journal directory and then
// detaches it from the journal: the returned service runs purely in memory
// (further mutations are NOT journaled), with its scheduling loop running
// over the recovered state. This is the -replay workflow — a recorded
// journal doubles as a reproducible scenario: restore it, inspect Stats,
// and optionally keep driving load against the recovered cluster.
func Replay(opts Options) (*Service, *RestoreInfo, error) {
	s, info, err := buildFromJournal(opts, true)
	if err == nil {
		go s.loop()
		s.wake()
	}
	return s, info, err
}

// buildFromJournal checks opts, opens the journal in opts.Durability.Dir and
// rebuilds the service from it, without starting the scheduling loop. With
// detach the journal is input only: it is opened without syncing and closed
// again before returning, and the service runs purely in memory.
func buildFromJournal(opts Options, detach bool) (*Service, *RestoreInfo, error) {
	dur := opts.Durability.withDefaults()
	if dur.Dir == "" {
		return nil, nil, errors.New("service: DurabilityConfig.Dir is required")
	}
	if opts.Model == nil {
		return nil, nil, errors.New("service: Options.Model is required")
	}
	sync := dur.Sync
	if detach {
		sync = wal.SyncNone
	}
	log, err := wal.Open(dur.Dir, wal.Options{SegmentBytes: dur.SegmentBytes, Sync: sync, FS: dur.FS})
	if err != nil {
		return nil, nil, err
	}
	s, info, err := recoverFromLog(opts, dur, log)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	if detach {
		// Close the journal before the loop starts so nothing can append,
		// and drop the event tap so rounds stop accumulating batch copies
		// nobody will journal.
		s.jrn = nil
		s.sched.GraphManager().EventTap = nil
		if err := log.Close(); err != nil {
			return nil, nil, err
		}
	}
	return s, info, nil
}

// recoverFromLog restores the latest snapshot in log, or builds a fresh
// service when there is none, and replays the log tail on top.
func recoverFromLog(opts Options, dur DurabilityConfig, log *wal.Log) (*Service, *RestoreInfo, error) {
	info := &RestoreInfo{}
	var s *Service
	var lastNow time.Duration
	var cut *snapCut
	r, lw, closeSnap, err := log.LatestSnapshot()
	switch {
	case err == nil:
		s, lastNow, cut, err = restoreSnapshot(opts, r)
		closeSnap()
		if err != nil {
			return nil, nil, err
		}
		info.Restored = true
		info.SnapshotRound = s.ctr.Rounds
	case errors.Is(err, os.ErrNotExist):
		// No snapshot: fresh state, but the log may still hold records
		// (a crash before the first snapshot cut). Replay from the start.
		lw = 1
		cl := cluster.New(opts.Topology)
		s = newService(cl, opts.Model(cl), opts.Scheduler, opts.Service)
	default:
		return nil, nil, err
	}
	s.attachJournal(log, dur)
	if err := s.replay(lw, cut, info.SnapshotRound, lastNow, info); err != nil {
		return nil, nil, fmt.Errorf("service: journal replay: %w", err)
	}
	s.lastSnapRound = s.ctr.Rounds
	s.exposeCounters()
	info.PendingTasks = s.cl.NumPending()
	info.RunningTasks = s.cl.NumRunning()
	return s, info, nil
}

// snapCut is what a snapshot records about the journal at its cut: the
// last sequence journaled, and the submit records then in flight (sorted).
// Every other submit record at or below seq had registered its job before
// the cut, so the snapshot holds that job — or retired it. Snapshots are
// cut with the front door paused, so the list is written empty; snapshots
// from before the pause may carry one, and restore honours it.
type snapCut struct {
	seq      uint64
	inflight []uint64
}

// registered reports whether the state cut at c already reflects the
// submit record seq: replay must not register it again.
func (c *snapCut) registered(seq uint64) bool {
	if c == nil {
		return false // no cut recorded: the replay window alone decides
	}
	_, found := slices.BinarySearch(c.inflight, seq)
	return seq <= c.seq && !found
}

// restoreSnapshot decodes the snapshot sections — service meta, cluster
// tables, scheduler (flow network + entity maps + solver scale), template
// cache — and rebuilds a stopped service around them. It returns the
// journal cut the meta records, nil for a snapshot older than version 3.
func restoreSnapshot(opts Options, r io.Reader) (*Service, time.Duration, *snapCut, error) {
	meta, err := wal.ReadSection(r)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("service: snapshot meta: %w", err)
	}
	md := wal.NewDec(meta)
	v := md.U32()
	if v < 1 || v > snapMetaVersion {
		return nil, 0, nil, fmt.Errorf("service: snapshot meta version %d (want <= %d)", v, snapMetaVersion)
	}
	rounds := md.I64()
	lastNow := md.Dur()

	cb, err := wal.ReadSection(r)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("service: snapshot cluster section: %w", err)
	}
	cl, err := cluster.DecodeSnapshot(wal.NewDec(cb))
	if err != nil {
		return nil, 0, nil, err
	}

	sb, err := wal.ReadSection(r)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("service: snapshot scheduler section: %w", err)
	}
	sched, err := core.RestoreScheduler(cl, opts.Model(cl), opts.Scheduler, wal.NewDec(sb))
	if err != nil {
		return nil, 0, nil, err
	}

	s := newServiceWith(cl, sched, opts.Service)
	s.ctr.Rounds = rounds
	counters := s.snapCounters()
	if v == 1 {
		counters = counters[:10]
	}
	for _, c := range counters {
		*c = md.I64()
	}
	var cut *snapCut
	if v >= 3 {
		cut = &snapCut{seq: md.U64()}
		n := md.Len(8)
		for i := 0; i < n; i++ {
			cut.inflight = append(cut.inflight, md.U64())
		}
	}
	if err := md.Err(); err != nil {
		return nil, 0, nil, fmt.Errorf("service: snapshot meta: %w", err)
	}
	if v >= 2 {
		tb, err := wal.ReadSection(r)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("service: snapshot template section: %w", err)
		}
		td := wal.NewDec(tb)
		if td.Bool() {
			if s.tmpl == nil {
				// The journal was recorded with templates on; replaying its
				// round records needs the cache. Restoring without it would
				// silently diverge, so fail loudly.
				return nil, 0, nil, errors.New("service: snapshot carries a template cache but Config.Templates is off (or the policy lacks a TemplateSignature)")
			}
			s.tmpl.cache.DecodeInto(td)
		}
		if err := td.Err(); err != nil {
			return nil, 0, nil, fmt.Errorf("service: snapshot template section: %w", err)
		}
	}
	return s, lastNow, cut, nil
}

// snapCounters lists the loop-owned counters in the order a snapshot's meta
// section carries them. Version-1 (pre-template) meta holds the first ten.
func (s *Service) snapCounters() []*int64 {
	c := &s.ctr
	return []*int64{
		&c.Placed, &c.Migrated, &c.Preempted, &c.Completed, &c.StaleCompletions,
		&c.StaleMachineOps, &c.StaleDecisions, &c.Unscheduled, &c.SolverWarmStarts, &c.SolverFullRestarts,
		&c.TemplateHits, &c.TemplateMisses, &c.TemplateInvalidations,
	}
}

// snapshot cuts a snapshot, notes its round and trims the log behind it.
// The front door must be paused: the caller holds closeMu's write side, or
// the service is closed and its loop has exited. Then no front-door call
// sits between its WAL append and its registration or op push, so every
// journaled submit has registered its job and every journaled intent is
// queued or was enacted by a round. Called only from the scheduling
// goroutine (between rounds) or after it has exited.
func (s *Service) snapshot() error {
	if err := s.saveSnapshot(); err != nil {
		return err
	}
	s.lastSnapRound = s.ctr.Rounds
	return s.jrn.TruncateBefore(snapRetain)
}

// saveSnapshot writes one snapshot: meta (round count, virtual clock,
// loop-owned counters, journal cut), the cluster tables (live jobs, retired
// totals and undrained event queues), the scheduler state and the template
// cache. Its low-water mark is the oldest intent still queued, or the next
// sequence when none is: with the front door paused, every older record has
// taken effect in the state written here.
func (s *Service) saveSnapshot() error {
	seq := s.jrn.LastSeq()
	lw := seq + 1
	// The front door is paused and the loop (or nobody) drains, so the
	// queue is stable without opMu.
	for _, o := range s.ops {
		if o.seq != 0 {
			lw = min(lw, o.seq)
		}
	}
	var meta wal.Enc
	meta.U32(snapMetaVersion)
	meta.I64(s.ctr.Rounds)
	meta.Dur(s.now())
	for _, c := range s.snapCounters() {
		meta.I64(*c)
	}
	meta.U64(seq) // the cut: every submit at or below it is registered
	meta.U32(0)   // and none is in flight
	_, err := s.jrn.SaveSnapshot(lw, func(w io.Writer) error {
		if err := wal.WriteSection(w, meta.B); err != nil {
			return err
		}
		var ce wal.Enc
		s.cl.EncodeSnapshot(&ce)
		if err := wal.WriteSection(w, ce.B); err != nil {
			return err
		}
		var se wal.Enc
		s.sched.EncodeSnapshot(&se)
		if err := wal.WriteSection(w, se.B); err != nil {
			return err
		}
		var te wal.Enc
		if s.tmpl != nil {
			te.Bool(true)
			s.tmpl.cache.Encode(&te)
		} else {
			te.Bool(false)
		}
		return wal.WriteSection(w, te.B)
	})
	return err
}

// replay re-enacts the journal tail from sequence lw: submits not captured
// by the snapshot (cut) re-register under their journaled IDs, op intents
// accumulate, and round records past the snapshot's round re-run the
// scheduling pipeline — recorded ops applied at the recorded virtual time,
// the recorded event batches folded into the (warm) flow network with an
// incremental re-solve, and the journaled decisions force-applied. Intents
// no round consumed are re-queued for the first live round.
//
//firmament:journaled replay consumes the journal: every registration here re-derives an already-durable record
func (s *Service) replay(lw uint64, cut *snapCut, snapRound int64, lastNow time.Duration, info *RestoreInfo) error {
	pending := make(map[uint64]op)
	maxNow := lastNow
	// cand reconstructs the template candidate queue: a submit record queues
	// its job, a round record clears the queue (that round's admission drain
	// consumed everything queued before it). Whatever survives the tail was
	// submitted after the last journaled round — exactly the jobs whose
	// admission attempt the crash stole — and is re-queued below.
	var cand []cluster.JobID
	err := s.jrn.Replay(lw, func(seq uint64, payload []byte) error {
		d := wal.NewDec(payload)
		switch k := d.U8(); k {
		case recSubmit:
			id, class, prio, at, specs := decodeSubmitRecord(d)
			if err := d.Err(); err != nil {
				return err
			}
			info.ReplayedRecords++
			if at > maxNow {
				maxNow = at
			}
			cand = append(cand, id)
			// A queued intent can hold the window open before submits the
			// cut had registered, and their jobs may since have finished
			// and retired: absence alone does not mean missed, so those stay
			// skipped. A submit the cut had not registered (past its seq, or
			// in flight in a snapshot from before the pause) is replayed
			// only if the snapshot lacks its job.
			if !cut.registered(seq) && s.cl.Job(id) == nil {
				s.cl.SubmitJobWithID(id, class, prio, at, specs)
			}
		case recIntent:
			o := decodeIntentRecord(d)
			if err := d.Err(); err != nil {
				return err
			}
			o.seq = seq
			pending[seq] = o
			info.ReplayedRecords++
		case recRound:
			rr, err := decodeRoundRecord(d)
			if err != nil {
				return err
			}
			info.ReplayedRecords++
			for _, eo := range rr.ops {
				delete(pending, eo.seq)
			}
			cand = cand[:0]
			if rr.round <= snapRound {
				// The snapshot already reflects this round; only its intent
				// consumption mattered.
				return nil
			}
			if rr.applyNow > maxNow {
				maxNow = rr.applyNow
			}
			if err := s.replayRound(&rr); err != nil {
				return err
			}
			info.ReplayedRounds++
		default:
			return fmt.Errorf("unknown journal record kind %d at seq %d", k, seq)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Re-queue the ops no round consumed, in acceptance order.
	seqs := make([]uint64, 0, len(pending))
	for q := range pending {
		seqs = append(seqs, q)
	}
	slices.Sort(seqs)
	for _, q := range seqs {
		s.ops = append(s.ops, pending[q])
	}
	s.opsQueued.Add(int64(len(seqs)))
	info.PendingOps = len(seqs)

	// Give the jobs the crash robbed of their admission attempt one on the
	// first post-restore round, like any freshly submitted job.
	for _, id := range cand {
		s.noteTemplateCandidate(id)
	}

	// The submission counter is front-door-owned and not in the snapshot;
	// every task ever submitted is in exactly one lifecycle state, so the
	// cluster tables recompute it.
	p, r, c, f := s.cl.CountStates()
	s.submitted.Store(int64(p + r + c + f))

	// Resume the virtual clock strictly after every recorded timestamp so
	// restored lifecycle times stay monotonic across the restart.
	s.start = time.Now().Add(-maxNow - time.Millisecond)
	return nil
}

// replayRound re-enacts one journaled round through the live round's
// stages: enactOp, foldAndSolve, cluster.RetireDone and accountRound. What it
// keeps is what really differs — the inputs come from the record (ops
// whose staleness must reproduce, the recorded event batches, decisions
// that are forced rather than derived from the re-solve) and the journaled
// outcomes are checked as they re-apply.
func (s *Service) replayRound(rr *roundRecord) error {
	s.ctr.Rounds++
	if s.ctr.Rounds != rr.round {
		return fmt.Errorf("journal round %d arrived as round %d (missing round record)", rr.round, s.ctr.Rounds)
	}
	for _, eo := range rr.ops {
		if stale := s.enactOp(eo.op, rr.drainNow); stale != eo.stale {
			return fmt.Errorf("round %d op seq %d: journaled stale=%v but replay got stale=%v",
				rr.round, eo.seq, eo.stale, stale)
		}
	}

	// Template cache deltas and hit placements replay verbatim from the
	// record — never recomputed, so the replayed run is deterministic
	// whether or not the cache was warm when the journal was written.
	if s.tmpl == nil && (len(rr.tmplDecisions) > 0 || len(rr.tmplDrops) > 0 || len(rr.tmplInserts) > 0) {
		return fmt.Errorf("round %d carries template records but Config.Templates is off", rr.round)
	}
	for _, fp := range rr.tmplDrops {
		s.tmpl.cache.Drop(fp)
	}
	// Hit placements were committed at drain time, before the live round
	// folded events — replay applies them before the fold so the graph
	// sees those tasks as running, exactly as the live update did.
	if tap := s.sched.ApplyDecisions(rr.tmplDecisions, rr.drainNow); tap.Stale != 0 {
		return fmt.Errorf("round %d: %d journaled template placements failed to re-apply", rr.round, tap.Stale)
	}
	if !rr.solved && len(rr.decisions) != 0 {
		return fmt.Errorf("round %d: unsolved round carries %d solver decisions", rr.round, len(rr.decisions))
	}

	// The replayed mutations re-queued events on the cluster's journal,
	// but the graph must see the exact batches the live round drained
	// (concurrent submitters made the live interleaving): discard the
	// re-queued ones and fold the recorded ones, so the graph stage's own
	// drain finds nothing.
	s.cl.DrainEvents(nil)
	for _, b := range rr.batches {
		s.sched.GraphManager().ApplyEvents(b)
	}
	r, _, err := s.foldAndSolve(rr)
	if err != nil {
		return fmt.Errorf("round %d re-solve: %w", rr.round, err)
	}
	// Force the journaled decisions; the re-solve's own mappings are only
	// there to move the flow network through the same states. On identical
	// cluster state every journaled decision must apply.
	ap := s.sched.ApplyDecisions(rr.decisions, rr.applyNow)
	if ap.Stale != 0 {
		return fmt.Errorf("round %d: %d journaled decisions failed to re-apply", rr.round, ap.Stale)
	}
	for _, t := range rr.tmplInserts {
		s.tmpl.cache.Insert(t)
	}
	s.cl.RetireDone()
	s.accountRound(rr, r, ap)
	return nil
}
