package service

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/template"
)

// Placement-template fast path (internal/template): the scheduling loop
// checks every newly submitted job against a cache of solver decisions
// keyed by the job's policy-visible shape plus the cluster's occupancy
// profile. A validated hit commits the cached placements before the round
// touches the flow network; when every pending task of a round was placed
// that way, the solve is skipped entirely (the graph still folds the
// round's events in, and the accumulated change set feeds the next real
// incremental solve). Misses fall through to the solver and the resulting
// placements are recorded as new templates.
//
// All cache state is confined to the scheduling goroutine; the only shared
// structure is the candidate queue, a mutex-guarded slice the front door
// appends job IDs to.

// tmplState is the template fast path's state, owned by the scheduling
// loop except for the queue.
type tmplState struct {
	cache *template.Cache
	sig   uint64 // the policy's TemplateSignature

	mu    sync.Mutex
	queue []cluster.JobID // jobs submitted since the last round

	// Loop-owned scratch. The round's cache deltas (hit placements, drops,
	// inserts) and counters live in the service's round record.
	cand     []cluster.JobID // drained candidate buffer (recycled)
	missCand []cluster.JobID // candidates that missed, for post-solve recording
	profile  []template.Slot

	// Recording scratch: the per-machine occupancy baseline captured just
	// before the round's apply, advanced by each placed decision so that a
	// candidate's first placement sees the profile a future admission of
	// the same job shape would see.
	occ     map[cluster.MachineID]int32
	applied []core.Decision // placed decisions in apply (task-ID) order
}

// captureOccupancy snapshots per-machine running counts as the recording
// baseline and clears the applied decisions recorded against it.
func (tp *tmplState) captureOccupancy(cl *cluster.Cluster) {
	tp.applied = tp.applied[:0]
	for k := range tp.occ {
		delete(tp.occ, k)
	}
	cl.Machines(func(m *cluster.Machine) {
		tp.occ[m.ID] = int32(m.Running())
	})
}

// newTmplState returns the template state, or nil when the policy does not
// implement template.Signer (the fast path silently disables itself — only
// policies that assert the equivalence contract may serve from cache).
func newTmplState(model interface{}) *tmplState {
	signer, ok := model.(template.Signer)
	if !ok {
		return nil
	}
	return &tmplState{
		cache: template.NewCache(template.DefaultCapacity),
		sig:   signer.TemplateSignature(),
		occ:   make(map[cluster.MachineID]int32),
	}
}

// noteTemplateCandidate queues a freshly submitted job for template
// admission at the next round. Called by the front door after the job is
// registered; replayed submissions bypass it (replay applies journaled
// cache deltas instead of recomputing them).
func (s *Service) noteTemplateCandidate(id cluster.JobID) {
	if s.tmpl == nil {
		return
	}
	s.tmpl.mu.Lock()
	s.tmpl.queue = append(s.tmpl.queue, id)
	s.tmpl.mu.Unlock()
}

// machineView adapts cluster machine state for template.Validate.
func (s *Service) machineView(m cluster.MachineID) (running, slots int, healthy bool) {
	mm := s.cl.Machine(m)
	if mm == nil {
		return 0, 0, false
	}
	return mm.Running(), mm.Slots, mm.Healthy()
}

// admitTemplates is template admission: it drains the candidate queue and,
// per candidate job (in job-ID order — the order the solver would place
// them in), either commits a validated cache hit or marks the job for
// post-solve recording. Runs on the scheduling goroutine between the op
// drain and the solve, so the cluster occupancy it validates against
// cannot shift before the commit. Hits, drops and counters go into the
// round record; the hit placements are also returned for publication.
//
//firmament:hotpath
func (s *Service) admitTemplates(now time.Duration, round int64) ([]Placement, error) {
	tp, rec := s.tmpl, &s.rec
	tp.missCand = tp.missCand[:0]
	tp.mu.Lock()
	cand := tp.queue
	tp.queue = tp.cand[:0]
	tp.cand = cand
	tp.mu.Unlock()
	if len(cand) == 0 {
		return nil, nil
	}
	slices.Sort(cand) // deterministic admission order, no sort.Slice closure allocation

	//firmament:ignore hotalloc the hit placements escape to Watch subscribers; they cannot come from reused scratch
	var placements []Placement
	for _, jid := range cand {
		job := s.cl.Job(jid)
		if job == nil || len(job.Tasks) == 0 {
			continue
		}
		// A job whose tasks are not all pending was already scheduled by a
		// previous round's solve (it was submitted before that round's
		// event fold); it is the solver's, not a candidate.
		pendingOnly := true
		for _, tid := range job.Tasks {
			t := s.cl.Task(tid)
			if t == nil || t.State != cluster.TaskPending {
				pendingOnly = false
				break
			}
		}
		if !pendingOnly {
			continue
		}
		wait := int64(policy.WaitCost(now - job.SubmitTime))
		shape, ok := template.JobShape(s.cl, job, tp.sig, wait)
		if !ok {
			continue
		}
		tp.profile = template.GatherProfile(s.cl, tp.profile)
		fp := template.Fingerprint(shape, tp.profile)
		ent := tp.cache.Lookup(fp)
		if ent != nil && ent.Matches(shape, tp.profile) && ent.Validate(s.machineView) {
			// Hit: commit the cached placements without touching the
			// solver. Validate checked every task before this commits any,
			// and the scheduling loop is the sole occupancy mutator, so a
			// failing Place is an invariant violation, not staleness.
			for i, tid := range job.Tasks {
				as := ent.Assign[i]
				if err := s.cl.Place(tid, as.Machine, now); err != nil {
					//firmament:ignore hotalloc invariant-violation path: a validated hit cannot fail Place while the scheduling goroutine is the sole occupancy mutator
					return placements, fmt.Errorf("template commit: task %d on machine %d: %w", tid, as.Machine, err)
				}
				rec.tmplDecisions = append(rec.tmplDecisions, core.Decision{
					Task: tid, Kind: core.DecisionPlaced, Machine: as.Machine,
					Job: job.ID, SubmitTime: job.SubmitTime})
				lat := now - job.SubmitTime
				s.placementLatency.AddDuration(lat)
				//firmament:ignore hotalloc see the declaration: the hit placements escape to subscribers, growth is the documented per-hit allocation
				placements = append(placements, Placement{
					Task: tid, Job: job.ID, Kind: core.DecisionPlaced,
					Machine: as.Machine, Round: uint64(round), Latency: lat})
			}
			rec.tmplHits++
			continue
		}
		if ent != nil {
			// The fingerprint resolved but the entry failed the exact
			// shape/profile comparison (hash collision) or the O(tasks)
			// feasibility check (recorded machines can no longer realize
			// the recorded levels). Either way the entry is wrong for the
			// state that now hashes here: drop it and re-learn from the
			// solve below.
			tp.cache.Drop(fp)
			rec.tmplDrops = append(rec.tmplDrops, fp)
			rec.tmplInvals++
		}
		rec.tmplMisses++
		tp.missCand = append(tp.missCand, jid)
	}
	return placements, nil
}

// simulatedProfile builds the occupancy profile from the recording
// baseline (live health and slots, simulated running counts).
func (s *Service) simulatedProfile() []template.Slot {
	tp := s.tmpl
	tp.profile = tp.profile[:0]
	s.cl.Machines(func(m *cluster.Machine) {
		if !m.Healthy() {
			return
		}
		tp.profile = append(tp.profile, template.Slot{Running: tp.occ[m.ID], Slots: int32(m.Slots)})
	})
	template.SortProfile(tp.profile)
	return tp.profile
}

// recordTemplates learns templates from the solve a miss fell through to.
// It walks the round's placed decisions in apply order over the captured
// occupancy baseline; at a candidate job's first placement it fingerprints
// the simulated profile — exactly what a future admission of the same
// shape would gather live — and each of the job's placements records its
// destination and the occupancy level it landed at. Only fully placed
// candidates are cached. The caller guarantees the apply performed
// placements only (no preemptions, migrations or stale skips), so the
// simulation is exact.
func (s *Service) recordTemplates(drainNow time.Duration) {
	tp := s.tmpl
	type jobRec struct {
		job     *cluster.Job
		shape   template.Shape
		fp      uint64
		profile []template.Slot
		assign  []template.Assignment
		seen    bool
		ok      bool
	}
	recs := make(map[cluster.JobID]*jobRec, len(tp.missCand))
	for _, jid := range tp.missCand {
		if job := s.cl.Job(jid); job != nil {
			recs[jid] = &jobRec{job: job}
		}
	}
	for _, d := range tp.applied {
		r := recs[d.Job]
		if r != nil && !r.seen {
			r.seen = true
			prof := s.simulatedProfile()
			wait := int64(policy.WaitCost(drainNow - r.job.SubmitTime))
			if shape, ok := template.JobShape(s.cl, r.job, tp.sig, wait); ok {
				r.shape = shape
				r.fp = template.Fingerprint(shape, prof)
				r.profile = append([]template.Slot(nil), prof...)
				r.ok = true
			}
		}
		level := tp.occ[d.Machine]
		tp.occ[d.Machine] = level + 1
		if r != nil && r.ok {
			r.assign = append(r.assign, template.Assignment{Machine: d.Machine, Level: level})
		}
	}
	// Insert in candidate (job-ID) order so cache FIFO order — and with it
	// the cache fingerprint — is deterministic.
	for _, jid := range tp.missCand {
		r := recs[jid]
		if r == nil || !r.ok || len(r.assign) != len(r.job.Tasks) {
			continue
		}
		t := &template.Template{FP: r.fp, Shape: r.shape, Profile: r.profile, Assign: r.assign}
		tp.cache.Insert(t)
		s.rec.tmplInserts = append(s.rec.tmplInserts, t)
	}
}

// TemplateCacheFingerprint hashes the template cache contents (0 when the
// fast path is disabled); crash-recovery equivalence tests compare it.
func (s *Service) TemplateCacheFingerprint() uint64 {
	if s.tmpl == nil {
		return 0
	}
	return s.tmpl.cache.Fingerprint()
}

// TemplateCacheLen returns the number of cached templates.
func (s *Service) TemplateCacheLen() int {
	if s.tmpl == nil {
		return 0
	}
	return s.tmpl.cache.Len()
}
