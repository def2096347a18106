package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"firmament/bench/delayfs"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/flow"
	"firmament/internal/mcmf"
	"firmament/internal/policy"
	"firmament/internal/template"
	"firmament/internal/wal"
)

// The stepped trace replays the workload's own op sequence, one batch per
// round at the live run's cadence, on a virtual clock and in one goroutine,
// through the layers' public functions in the order the service calls
// them. Nothing here is concurrent, so every stage's time is its own: the
// stage medians are what the README's budget table adds up against the
// live service.round_ms_p50.
//
// core.Scheduler.Schedule is taken apart into the public pieces it is made
// of (ApplyClusterEvents, UpdateRound, SolverPool.Solve, ExtractPlacements),
// in the same order, so that the adjacency repair and the replica clone —
// which happen inside the solve — can be timed at the seam where they occur.

type stepped struct {
	// per round, microseconds
	update, adjacency, clone, solve, extract, apply, schedule, round []float64
	algo, relax, costscale, refine                                   []float64
	changes                                                          []float64
	warm, relaxWon, rounds                                           int
	// per call, microseconds
	submitJob, complete, machineOp, walAppend, walSync, admit []float64

	nodes, arcs   float64
	allocsPerSolv float64
	scratchMS     float64
	feasible      error
}

// steppedJob is a job the stepped trace has submitted.
type steppedJob struct {
	job  *cluster.Job
	durs []time.Duration // nil: complete at the next round (closed loop)
}

func runStepped(sp *spec, opt options, lt *liveTrace, tr *tracer) (*stepped, error) {
	st := &stepped{}
	files := []inputFile(nil)
	if sp.quincy {
		files = storeFiles(numFiles)
	}
	cl := cluster.New(sp.topo)
	model := sp.model(files)(cl)
	sched := core.NewScheduler(cl, model, core.DefaultConfig())
	gm, pool := sched.GraphManager(), sched.Pool()
	g := gm.Graph()

	var log *wal.Log
	if sp.production {
		dir, err := os.MkdirTemp(opt.tmp, "stepped-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if log, err = wal.Open(dir, wal.Options{Sync: wal.SyncBatch, FS: delayfs.New(delayfs.DefaultSyncDelay)}); err != nil {
			return nil, err
		}
		defer log.Close()
	}
	var cache *template.Cache
	var sig uint64
	if signer, ok := model.(template.Signer); ok && sp.svc.Templates {
		cache, sig = template.NewCache(0), signer.TemplateSignature()
	}

	// Prefill, placed by ordinary rounds before the clock starts.
	if specs := prefillSpecs(sp, files); len(specs) > 0 {
		cl.SubmitJob(cluster.Batch, 0, 0, specs)
		for i := 0; cl.NumPending() > 0 && i < 10; i++ {
			if _, _, err := sched.RunOnce(0); err != nil {
				return nil, err
			}
		}
	}

	dt := lt.roundPeriod()
	perRound := max(lt.batchEvents()/2, 1) // closed loop: half the events are submits, half completions
	var arrivals []arrival
	if sp.open != nil {
		arrivals = schedule(sp, opt.seed, time.Duration(opt.rounds+opt.warmRnd+1)*dt+time.Second, files)
	}
	streams := make([]*jobStream, opt.drivers)
	for d := range streams {
		streams[d] = newJobStream(sp, opt.seed, d)
	}

	jobs := make(map[cluster.JobID]*steppedJob)
	type running struct {
		task cluster.TaskID
		due  time.Duration
	}
	var live []running // placed, not yet completed
	var replica *flow.Graph
	var enc wal.Enc
	var profile []template.Slot
	owed, issued, next := 0.0, 0, 0
	var mallocs, solves uint64

	var rid uint64 // the current round's span
	timed := func(name string, dst *[]float64, rec bool, fn func()) time.Duration {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		if rec {
			*dst = append(*dst, us(d))
			tr.record(rid, name, 0, t0, d)
		}
		return d
	}
	journal := func(rec bool, build func(e *wal.Enc)) error {
		if log == nil {
			return nil
		}
		enc.B = enc.B[:0]
		build(&enc)
		var seq uint64
		var err error
		timed("wal.append", &st.walAppend, rec, func() { seq, err = log.Append(enc.B) })
		if err != nil {
			return err
		}
		timed("wal.sync_to", &st.walSync, rec, func() { err = log.SyncTo(seq) })
		return err
	}

	began := time.Now()
	for round := 0; round < opt.rounds+opt.warmRnd; round++ {
		// Rounds that take tens of milliseconds would make 300 of them
		// outlast the run: stop after half a window's worth of wall time,
		// once enough rounds are in for a median.
		if round >= 2*opt.warmRnd && time.Since(began) > opt.window/2 {
			break
		}
		rec := round >= opt.warmRnd
		now := time.Duration(round+1) * dt
		roundStart := time.Now()
		rid, _ = tr.begin()

		// 1. Ops the service would drain first: completions and machine ops.
		keep := live[:0]
		for _, r := range live {
			if r.due > now {
				keep = append(keep, r)
				continue
			}
			if err := journal(rec, func(e *wal.Enc) { e.U8(2); e.U8(0); e.I64(int64(r.task)); e.I64(0) }); err != nil {
				return nil, err
			}
			// An evicted task's completion is stale, as in the live run.
			timed("cluster.complete", &st.complete, rec, func() { _ = cl.Complete(r.task, now) })
		}
		live = keep
		var submits []arrival
		for next < len(arrivals) && arrivals[next].due <= now {
			a := arrivals[next]
			next++
			if a.specs != nil {
				submits = append(submits, a)
				continue
			}
			timed("cluster.machine_op", &st.machineOp, rec, func() {
				if a.restore {
					_ = cl.RestoreMachine(a.machine, now)
				} else {
					_ = cl.RemoveMachine(a.machine, now)
				}
			})
		}

		// 2. Submissions of this round.
		if sp.closed() {
			for owed += perRound; owed > 0; issued++ {
				n := streams[issued%len(streams)].next(issued / len(streams) % sp.inFlight())
				specs := make([]cluster.TaskSpec, n)
				for i := range specs {
					specs[i].InputFile = -1
				}
				submits = append(submits, arrival{class: cluster.Batch, specs: specs})
				owed -= float64(n)
			}
		}
		var fresh []cluster.JobID
		for _, a := range submits {
			if err := journal(rec, func(e *wal.Enc) {
				e.U8(1)
				e.I64(0)
				e.U8(uint8(a.class))
				e.I64(int64(a.priority))
				e.Dur(now)
				e.U32(uint32(len(a.specs)))
				for _, s := range a.specs {
					cluster.EncodeSpec(e, s)
				}
			}); err != nil {
				return nil, err
			}
			var job *cluster.Job
			timed("cluster.submit_job", &st.submitJob, rec, func() { job = cl.SubmitJob(a.class, a.priority, now, a.specs) })
			sj := &steppedJob{job: job}
			if sp.open != nil {
				for _, s := range a.specs {
					sj.durs = append(sj.durs, s.Duration)
				}
			}
			jobs[job.ID] = sj
			fresh = append(fresh, job.ID)
		}

		// 3. Template admission, as service.admitTemplates sequences it.
		var placedNow []core.Decision
		var missed []cluster.JobID
		if cache != nil {
			for _, jid := range fresh {
				job := jobs[jid].job
				var ent *template.Template
				var shape template.Shape
				hit := false
				timed("template.admit", &st.admit, rec, func() {
					shape, _ = template.JobShape(cl, job, sig, int64(policy.WaitCost(now-job.SubmitTime)))
					profile = template.GatherProfile(cl, profile)
					ent = cache.Lookup(template.Fingerprint(shape, profile))
					hit = ent != nil && ent.Matches(shape, profile) && ent.Validate(func(m cluster.MachineID) (int, int, bool) {
						mm := cl.Machine(m)
						return mm.Running(), mm.Slots, mm.Healthy()
					})
				})
				if !hit {
					missed = append(missed, jid)
					continue
				}
				for i, tid := range job.Tasks {
					if err := cl.Place(tid, ent.Assign[i].Machine, now); err != nil {
						return nil, fmt.Errorf("template commit: %w", err)
					}
					placedNow = append(placedNow, core.Decision{Task: tid, Kind: core.DecisionPlaced, Machine: ent.Assign[i].Machine, Job: jid})
				}
			}
		}

		// 4. The scheduling computation, stage by stage.
		var nchanges int
		var pr core.PoolResult
		var mappings map[cluster.TaskID]cluster.MachineID
		var solveErr error
		dUpdate := timed("core.update", &st.update, rec, func() { gm.ApplyClusterEvents(); gm.UpdateRound(now) })
		if cache != nil && len(placedNow) > 0 && cl.NumPending() == 0 {
			// Every pending task came from the cache: the service skips the
			// solve and only folds the round into the graph.
			if rec {
				st.rounds++
				st.schedule = append(st.schedule, us(dUpdate))
			}
		} else {
			// The repair is done here so that the one inside Solve finds
			// nothing to do; the clone is a second copy of the one Solve
			// makes for its speculative solver, timed on its own and left
			// out of the round's sum.
			dAdj := timed("flow.adjacency_repair", &st.adjacency, rec, func() { g.Adjacency() })
			timed("flow.clone", &st.clone, rec, func() { replica = g.CloneInto(replica) })
			var m0 runtime.MemStats
			if rec && round%8 == 0 {
				runtime.ReadMemStats(&m0)
			}
			dSolve := timed("core.pool_solve", &st.solve, rec, func() {
				changes := gm.Changes()
				nchanges = changes.Len()
				pr, solveErr = pool.Solve(g, changes)
				changes.Reset()
			})
			if solveErr != nil {
				return nil, solveErr
			}
			if rec && round%8 == 0 {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				solves++
			}
			dExtract := timed("core.extract", &st.extract, rec, func() { mappings = gm.ExtractPlacements() })
			r := &core.Round{Mappings: mappings, Stats: core.RoundStats{Pool: pr, Tasks: gm.NumTasks(), Changes: nchanges}}

			// Occupancy before the apply, for recording templates.
			occ := map[cluster.MachineID]int32{}
			if len(missed) > 0 {
				cl.Machines(func(m *cluster.Machine) { occ[m.ID] = int32(m.Running()) })
			}
			var applied []core.Decision
			var ap core.ApplyStats
			timed("core.apply", &st.apply, rec, func() {
				ap = sched.ApplyRoundRecorded(r, now, func(d core.Decision) {
					if d.Kind == core.DecisionPlaced {
						applied = append(applied, d)
					}
				})
			})
			if len(missed) > 0 && ap.Preempted == 0 && ap.Migrated == 0 && ap.Stale == 0 {
				recordTemplates(cl, cache, sig, jobs, missed, applied, occ, now)
			}
			placedNow = append(placedNow, applied...)
			if rec {
				st.rounds++
				st.schedule = append(st.schedule, us(dUpdate+dAdj+dSolve+dExtract))
				st.algo = append(st.algo, us(pr.AlgorithmTime))
				st.relax = append(st.relax, us(pr.RelaxationTime))
				st.costscale = append(st.costscale, us(pr.CostScalingTime))
				st.refine = append(st.refine, us(pr.PriceRefineTime))
				st.changes = append(st.changes, float64(nchanges))
				if pr.Incremental {
					st.warm++
				}
				if pr.Winner == "relaxation" {
					st.relaxWon++
				}
			}
		}

		// 5. The round record, then the placements start running.
		if err := journal(rec, func(e *wal.Enc) {
			e.U8(3)
			e.I64(int64(round))
			for _, d := range placedNow {
				e.I64(int64(d.Task))
				e.U8(uint8(d.Kind))
				e.I64(int64(d.Machine))
				e.I64(int64(d.Job))
				e.Dur(now)
			}
		}); err != nil {
			return nil, err
		}
		for _, d := range placedNow {
			sj := jobs[d.Job]
			if sj == nil {
				continue // a prefilled task re-placed after a preemption: it never finishes
			}
			due := now // closed loop: completed at the next round's drain
			if sj.durs != nil {
				due = now + sj.durs[int(uint32(d.Task))]
			}
			live = append(live, running{d.Task, due})
		}
		if rec {
			st.round = append(st.round, us(time.Since(roundStart)))
			st.nodes += float64(g.NumNodes())
			st.arcs += float64(g.NumArcs())
			tr.end(rid, "step.round", int64(round), roundStart)
		}
	}

	if st.rounds > 0 {
		st.nodes /= float64(len(st.round))
		st.arcs /= float64(len(st.round))
	}
	if solves > 0 {
		st.allocsPerSolv = float64(mallocs) / float64(solves)
	}
	// Rounds served from the template cache leave their changes for the
	// next solve; the flow is only a flow again once one has run.
	if changes := gm.Changes(); !changes.Empty() {
		if _, err := pool.Solve(g, changes); err != nil {
			return nil, err
		}
		changes.Reset()
	}
	st.feasible = g.CheckFeasible()

	// What the warm start is worth: one from-scratch cost scaling solve of
	// the final graph.
	scratch := g.Clone()
	t0 := time.Now()
	if _, err := mcmf.NewCostScaling().Solve(scratch, &mcmf.Options{Alpha: core.DefaultConfig().Alpha}); err != nil {
		return nil, fmt.Errorf("from-scratch solve of the final graph: %w", err)
	}
	st.scratchMS = ms(time.Since(t0))
	return st, nil
}

// recordTemplates learns templates from the solve the missed jobs fell
// through to, the way service.recordTemplates does: walking the placed
// decisions in apply order over the occupancy captured before the apply,
// a job's template is keyed by the profile at its first placement and
// records, per task, the destination and the level it landed at.
func recordTemplates(cl *cluster.Cluster, cache *template.Cache, sig uint64, jobs map[cluster.JobID]*steppedJob,
	missed []cluster.JobID, applied []core.Decision, occ map[cluster.MachineID]int32, now time.Duration) {
	type rec struct {
		t    *template.Template
		seen bool
	}
	recs := make(map[cluster.JobID]*rec, len(missed))
	for _, jid := range missed {
		recs[jid] = &rec{}
	}
	for _, d := range applied {
		r := recs[d.Job]
		if r != nil && !r.seen {
			r.seen = true
			job := jobs[d.Job].job
			var prof []template.Slot
			cl.Machines(func(m *cluster.Machine) {
				if m.Healthy() {
					prof = append(prof, template.Slot{Running: occ[m.ID], Slots: int32(m.Slots)})
				}
			})
			template.SortProfile(prof)
			if shape, ok := template.JobShape(cl, job, sig, int64(policy.WaitCost(now-job.SubmitTime))); ok {
				r.t = &template.Template{FP: template.Fingerprint(shape, prof), Shape: shape, Profile: prof}
			}
		}
		level := occ[d.Machine]
		occ[d.Machine] = level + 1
		if r != nil && r.t != nil {
			r.t.Assign = append(r.t.Assign, template.Assignment{Machine: d.Machine, Level: level})
		}
	}
	slices.Sort(missed)
	for _, jid := range missed {
		if r := recs[jid]; r.t != nil && len(r.t.Assign) == len(jobs[jid].job.Tasks) {
			cache.Insert(r.t)
		}
	}
}

// steppedMetrics reports the stepped trace's stage medians and the
// recovery figures as per-layer metrics.
func (r *result) steppedMetrics(st *stepped, rs *restoreResult) {
	p := func(v []float64, q float64) float64 { return percentile(v, q) }
	r.layer("cluster.submit_job_us_p50", "us", p(st.submitJob, 50))
	r.layer("cluster.complete_us_p50", "us", p(st.complete, 50))
	r.layer("cluster.machine_op_us_p50", "us", p(st.machineOp, 50))
	r.layer("wal.append_us_p50", "us", p(st.walAppend, 50))
	r.layer("wal.sync_us_p50", "us", p(st.walSync, 50))
	r.layer("core.schedule_ms_p50", "ms", p(st.schedule, 50)/1000)
	r.layer("core.update_ms_p50", "ms", p(st.update, 50)/1000)
	r.layer("core.extract_us_p50", "us", p(st.extract, 50))
	r.layer("core.apply_us_p50", "us", p(st.apply, 50))
	r.layer("core.changes_per_round_mean", "count", mean(st.changes))
	solved := float64(max(len(st.algo), 1))
	r.layer("core.warm_start_share", "ratio", float64(st.warm)/solved)
	r.layer("core.relax_win_share", "ratio", float64(st.relaxWon)/solved)
	r.layer("flow.clone_us_p50", "us", p(st.clone, 50))
	r.layer("flow.adjacency_repair_us_p50", "us", p(st.adjacency, 50))
	r.layer("flow.nodes", "count", st.nodes)
	r.layer("flow.arcs", "count", st.arcs)
	r.layer("mcmf.algo_ms_p50", "ms", p(st.algo, 50)/1000)
	r.layer("mcmf.algo_ms_p99", "ms", p(st.algo, 99)/1000)
	r.layer("mcmf.relax_ms_p50", "ms", p(st.relax, 50)/1000)
	r.layer("mcmf.costscale_inc_ms_p50", "ms", p(st.costscale, 50)/1000)
	r.layer("mcmf.price_refine_us_p50", "us", p(st.refine, 50))
	r.layer("mcmf.scratch_solve_ms", "ms", st.scratchMS)
	r.layer("mcmf.allocs_per_solve", "count", st.allocsPerSolv)
	r.layer("template.admit_us_p50", "us", p(st.admit, 50))
	r.layer("bench.stepped_round_ms_p50", "ms", p(st.round, 50)/1000)
	restoreMS, records, replay := 0.0, 0.0, 0.0
	if rs != nil {
		restoreMS, records, replay = rs.openMS, float64(rs.records), rs.replayPerSec
	}
	r.layer("service.restore_ms", "ms", restoreMS)
	r.layer("service.restore_replayed_records", "count", records)
	r.layer("wal.replay_records_per_s", "1/s", replay)
}
