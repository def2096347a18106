package service

import (
	"fmt"
	"slices"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/template"
	"firmament/internal/wal"
)

// The durable event journal. Every externally visible front-door mutation
// and every enacted scheduling round is appended to a write-ahead log
// (internal/wal) so that a crashed service can be rebuilt exactly: restore
// the latest snapshot, then replay the log tail. Three record kinds:
//
//   - submit: a job registration — ID, class, priority, submission time and
//     task specs. Appended BEFORE the job enters the cluster tables, under
//     an ID reserved with AllocJobID, so the journal record for a job
//     always precedes any round record that schedules it.
//
//   - intent: a queued ingestion op (completion, machine remove/restore),
//     appended when the front door accepts it — the op is acknowledged
//     durable before it is enacted. The WAL sequence number doubles as the
//     op's identity; round records cite it when the op is enacted.
//
//   - round: one scheduling round — the enacted ops (with their staleness
//     outcomes), the exact event batches the graph update folded in, the
//     decisions enacted, and the round's virtual timestamps. Replay applies
//     the ops, feeds the recorded batches to the flow-network update
//     (re-solving incrementally), and then force-applies the recorded
//     decisions: the solver race of §6.1 is timing-dependent, so the
//     journal, not a re-run solve, is the ground truth for what happened.
//
// Every snapshot is cut with the front door paused (closeMu's write side),
// so at the cut each journaled submit has registered its job and each
// journaled intent sits in an op shard or has been enacted. The replay
// low-water mark is therefore the oldest intent still queued, or the next
// sequence when none is. A queued intent can hold the window open before
// submits the snapshot already reflects — some of whose jobs have finished
// and been retired — so the snapshot also records the cut (snapCut) that
// tells replay which submit records to skip.
const (
	recSubmit uint8 = 1 + iota
	recIntent
	recRound
)

// enactedOp is one ingestion op a round drained and applied, as cited by a
// round record. stale records the live outcome (the op no longer applied —
// completion of a preempted task, removal of an already-removed machine);
// replay must reproduce it bit for bit, so a divergence is a restore error.
type enactedOp struct {
	op
	stale bool
}

// roundRecord is the journal image of one scheduling round. The live round
// writes into a reused record as it goes (Service.rec), so journaling it is
// an encode; replay decodes one and re-enacts it through the same stages.
type roundRecord struct {
	round     int64
	drainNow  time.Duration // virtual time of the op drain + event fold
	applyNow  time.Duration // virtual time the decisions were enacted at
	ops       []enactedOp
	batches   [][]cluster.Event // event batches folded in, in drain order
	decisions []core.Decision
	// Counter deltas replay cannot re-derive from the record alone:
	// staleDecisions counts solver decisions the live apply skipped (they
	// were never journaled as decisions), unscheduled the tasks left
	// waiting.
	staleDecisions uint32
	unscheduled    uint32

	// Template fast-path extension (absent in pre-template journals, which
	// decode as solved rounds with no template activity). solved is false
	// for rounds whose every placement came from the template cache — the
	// live round ran no solve, so replay folds the batches with an
	// update-only pass instead of re-solving. The cache deltas (hit
	// placements, dropped fingerprints, inserted templates, counter
	// deltas) are recorded verbatim: replay applies them instead of
	// recomputing, so a replayed scenario behaves identically whether or
	// not the cache was warm at record time.
	solved        bool
	tmplDecisions []core.Decision
	tmplInserts   []*template.Template
	tmplDrops     []uint64
	tmplHits      uint32
	tmplMisses    uint32
	tmplInvals    uint32
}

// reset readies the record for a round drained at now, keeping its buffers.
func (rr *roundRecord) reset(round int64, now time.Duration) {
	*rr = roundRecord{
		round: round, drainNow: now, applyNow: now,
		ops: rr.ops[:0], batches: rr.batches[:0], decisions: rr.decisions[:0],
		tmplDecisions: rr.tmplDecisions[:0], tmplInserts: rr.tmplInserts[:0], tmplDrops: rr.tmplDrops[:0],
	}
}

// journal is the service's handle on the WAL. Its appends need no
// bookkeeping: snapshots are cut with the front door paused (see above).
type journal struct {
	log *wal.Log
}

// appendSubmit appends a job's submit record; the caller registers the job
// after it, under the same hold of closeMu's read side.
func (j *journal) appendSubmit(payload []byte) (uint64, error) { return j.log.Append(payload) }

// appendIntent appends an op-intent record; the caller queues the op after
// it, under the same hold of closeMu's read side.
func (j *journal) appendIntent(payload []byte) (uint64, error) { return j.log.Append(payload) }

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

// syncTo makes record seq durable per the log's sync policy (flush to the
// OS always — a killed process loses nothing flushed — fsync under
// SyncAlways).
func (j *journal) syncTo(seq uint64) error { return j.log.SyncTo(seq) }

// ---- record encoding ----

//firmament:deterministic
func encodeSubmitRecord(e *wal.Enc, id cluster.JobID, class cluster.JobClass,
	priority int, at time.Duration, specs []cluster.TaskSpec) {
	e.U8(recSubmit)
	e.I64(int64(id))
	e.U8(uint8(class))
	e.I64(int64(priority))
	e.Dur(at)
	e.U32(uint32(len(specs)))
	for _, sp := range specs {
		cluster.EncodeSpec(e, sp)
	}
}

//firmament:deterministic
func decodeSubmitRecord(d *wal.Dec) (id cluster.JobID, class cluster.JobClass,
	priority int, at time.Duration, specs []cluster.TaskSpec) {
	id = cluster.JobID(d.I64())
	class = cluster.JobClass(d.U8())
	priority = int(d.I64())
	at = d.Dur()
	n := d.Len(32)
	specs = make([]cluster.TaskSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, cluster.DecodeSpec(d))
	}
	return
}

//firmament:deterministic
func encodeIntentRecord(e *wal.Enc, o op) {
	e.U8(recIntent)
	e.U8(uint8(o.kind))
	e.I64(int64(o.task))
	e.I64(int64(o.machine))
}

//firmament:deterministic
func decodeIntentRecord(d *wal.Dec) op {
	return op{
		kind:    opKind(d.U8()),
		task:    cluster.TaskID(d.I64()),
		machine: cluster.MachineID(d.I64()),
	}
}

//firmament:deterministic
func encodeRoundRecord(e *wal.Enc, rr *roundRecord) {
	e.U8(recRound)
	e.I64(rr.round)
	e.Dur(rr.drainNow)
	e.Dur(rr.applyNow)
	e.U32(uint32(len(rr.ops)))
	for _, o := range rr.ops {
		e.U64(o.seq)
		e.U8(uint8(o.kind))
		e.I64(int64(o.task))
		e.I64(int64(o.machine))
		e.Bool(o.stale)
	}
	e.U32(uint32(len(rr.batches)))
	for _, b := range rr.batches {
		e.U32(uint32(len(b)))
		for _, ev := range b {
			cluster.EncodeEvent(e, ev)
		}
	}
	e.U32(uint32(len(rr.decisions)))
	for _, dc := range rr.decisions {
		encodeDecision(e, dc)
	}
	e.U32(rr.staleDecisions)
	e.U32(rr.unscheduled)
	// Template extension (readers of pre-template records stop above).
	e.Bool(rr.solved)
	e.U32(uint32(len(rr.tmplDecisions)))
	for _, dc := range rr.tmplDecisions {
		encodeDecision(e, dc)
	}
	e.U32(uint32(len(rr.tmplDrops)))
	for _, fp := range rr.tmplDrops {
		e.U64(fp)
	}
	e.U32(uint32(len(rr.tmplInserts)))
	for _, t := range rr.tmplInserts {
		template.EncodeTemplate(e, t)
	}
	e.U32(rr.tmplHits)
	e.U32(rr.tmplMisses)
	e.U32(rr.tmplInvals)
}

//firmament:deterministic
func encodeDecision(e *wal.Enc, dc core.Decision) {
	e.I64(int64(dc.Task))
	e.U8(uint8(dc.Kind))
	e.I64(int64(dc.Machine))
	e.I64(int64(dc.Job))
	e.Dur(dc.SubmitTime)
}

//firmament:deterministic
func decodeDecision(d *wal.Dec) core.Decision {
	return core.Decision{
		Task:       cluster.TaskID(d.I64()),
		Kind:       core.DecisionKind(d.U8()),
		Machine:    cluster.MachineID(d.I64()),
		Job:        cluster.JobID(d.I64()),
		SubmitTime: d.Dur(),
	}
}

//firmament:deterministic
func decodeRoundRecord(d *wal.Dec) (roundRecord, error) {
	var rr roundRecord
	rr.round = d.I64()
	rr.drainNow = d.Dur()
	rr.applyNow = d.Dur()
	nops := d.Len(26)
	rr.ops = make([]enactedOp, 0, nops)
	for i := 0; i < nops; i++ {
		o := op{seq: d.U64(), kind: opKind(d.U8()), task: cluster.TaskID(d.I64()), machine: cluster.MachineID(d.I64())}
		if o.kind > opRestoreMachine {
			return roundRecord{}, fmt.Errorf("service: round %d cites unknown op kind %d", rr.round, o.kind)
		}
		rr.ops = append(rr.ops, enactedOp{o, d.Bool()})
	}
	nb := d.Len(4)
	rr.batches = make([][]cluster.Event, 0, nb)
	for i := 0; i < nb; i++ {
		ne := d.Len(25)
		b := make([]cluster.Event, 0, ne)
		for k := 0; k < ne; k++ {
			b = append(b, cluster.DecodeEvent(d))
		}
		rr.batches = append(rr.batches, b)
	}
	nd := d.Len(33)
	rr.decisions = make([]core.Decision, 0, nd)
	for i := 0; i < nd; i++ {
		rr.decisions = append(rr.decisions, decodeDecision(d))
	}
	rr.staleDecisions = d.U32()
	rr.unscheduled = d.U32()
	if d.Err() == nil && d.Remaining() == 0 {
		// Pre-template journal: every round was solved and touched no
		// template cache.
		rr.solved = true
		return rr, nil
	}
	rr.solved = d.Bool()
	ntd := d.Len(33)
	if ntd > 0 {
		rr.tmplDecisions = make([]core.Decision, 0, ntd)
		for i := 0; i < ntd; i++ {
			rr.tmplDecisions = append(rr.tmplDecisions, decodeDecision(d))
		}
	}
	ndr := d.Len(8)
	if ndr > 0 {
		rr.tmplDrops = make([]uint64, 0, ndr)
		for i := 0; i < ndr; i++ {
			rr.tmplDrops = append(rr.tmplDrops, d.U64())
		}
	}
	nin := d.Len(49)
	if nin > 0 {
		rr.tmplInserts = make([]*template.Template, 0, nin)
		for i := 0; i < nin; i++ {
			rr.tmplInserts = append(rr.tmplInserts, template.DecodeTemplate(d))
		}
	}
	rr.tmplHits = d.U32()
	rr.tmplMisses = d.U32()
	rr.tmplInvals = d.U32()
	if err := d.Err(); err != nil {
		return roundRecord{}, fmt.Errorf("service: corrupt round record: %w", err)
	}
	return rr, nil
}
