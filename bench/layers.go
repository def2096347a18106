package main

import (
	"os"
	"runtime"
	"time"

	"firmament/bench/delayfs"
	"firmament/internal/cluster"
	"firmament/internal/metrics"
	"firmament/internal/service"
	"firmament/internal/wal"
)

// statsPollEvery is how often the traced window reads service.Stats, the
// way a dashboard would.
const statsPollEvery = 250 * time.Millisecond

// counters are the cumulative counts read at both ends of the traced
// window; every live per-layer figure is a difference of two of them.
type counters struct {
	st                                       service.Stats
	placed, replaced, completions, completed int64 // the load's own counts
	fs                                       delayfs.Counts
	httpBytes, httpErrors                    int64
}

func readCounters(sys *system, l *load, tr *tracer) counters {
	c := counters{
		st:     sys.svc.Stats(),
		placed: l.firstPlaced.Load(), replaced: l.replaced.Load(),
		completions: l.completions.Load(), completed: l.completed.Load(),
		httpBytes: tr.httpBytes.Load(), httpErrors: tr.httpErrors.Load(),
	}
	if sys.fs != nil {
		c.fs = sys.fs.Counts()
	}
	return c
}

// A liveTrace brackets the traced window on the live service: counters
// and distributions before and after, the retained heap, and the timed
// Stats polls in between.
type liveTrace struct {
	l  *load
	tr *tracer

	t0, t1         time.Time
	c0, c1         counters
	heap0, heap1   uint64 // live heap after a forced GC
	pollUS         []float64
	stopPoll, done chan struct{}
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func startLiveTrace(sys *system, l *load, tr *tracer) *liveTrace {
	lt := &liveTrace{l: l, tr: tr, stopPoll: make(chan struct{}), done: make(chan struct{})}
	lt.heap0 = liveHeap()
	lt.c0 = readCounters(sys, l, tr)
	lt.t0 = time.Now()
	go func() {
		defer close(lt.done)
		tick := time.NewTicker(statsPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-lt.stopPoll:
				return
			case <-tick.C:
				id, start := tr.begin()
				sys.svc.Stats()
				lt.pollUS = append(lt.pollUS, us(time.Since(start)))
				tr.end(id, "service.stats_poll", 0, start)
			}
		}
	}()
	return lt
}

func (lt *liveTrace) finish(sys *system) {
	close(lt.stopPoll)
	<-lt.done
	lt.t1 = time.Now()
	lt.c1 = readCounters(sys, lt.l, lt.tr)
	lt.heap1 = liveHeap()
}

// windowDist returns the samples a cumulative service distribution gained
// during the traced window.
func windowDist(after, before *metrics.Dist) []float64 {
	return newSamples(after.Values(), before.Values())
}

// roundPeriod is the mean time between round starts in the traced window,
// and batchEvents the mean events folded per round; the stepped trace
// replays the workload at this cadence.
func (lt *liveTrace) roundPeriod() time.Duration {
	rounds := lt.c1.st.Rounds - lt.c0.st.Rounds
	if rounds <= 0 {
		return time.Millisecond
	}
	return lt.t1.Sub(lt.t0) / time.Duration(rounds)
}

func (lt *liveTrace) batchEvents() float64 {
	return mean(windowDist(lt.c1.st.BatchSize, lt.c0.st.BatchSize))
}

func (r *result) layer(name, unit string, v float64) {
	r.PerLayer[name] = metric{Unit: unit, Value: v}
}

// layerMetrics fills in what the live traced window shows: spans recorded
// at the harness's own boundaries, deltas of service.Stats, and the disk's
// counters. Metrics of a layer the workload leaves idle are reported as 0.
func (r *result) layerMetrics(sys *system, l *load, tr *tracer, lt *liveTrace, refTput float64) {
	secs := lt.t1.Sub(lt.t0).Seconds()
	c0, c1 := lt.c0, lt.c1
	st0, st1 := c0.st, c1.st
	placed := float64(max(c1.placed-c0.placed, 1))

	// api: only the production path goes through it.
	var rtt, handler, wire, crtt, deliver, publish []float64
	l.mu.Lock()
	outside := l.outMS[tracedWindow]
	l.mu.Unlock()
	out50 := percentile(outside, 50) * 1000
	if sys.sp.production {
		rtt = tr.durations("driver.submit")
		handler = tr.durations("api.handler.submit")
		wire = tr.childGaps("driver.submit", "api.handler.submit")
		crtt = tr.durations("driver.complete")
		deliver = []float64{out50}
	} else {
		publish = []float64{out50}
	}
	r.layer("api.submit_rtt_us_p50", "us", percentile(rtt, 50))
	r.layer("api.handler_us_p50", "us", percentile(handler, 50))
	r.layer("api.wire_us_p50", "us", percentile(wire, 50))
	r.layer("api.complete_batch_rtt_us_p50", "us", percentile(crtt, 50))
	batch := 0.0
	if sys.sp.production && c1.completions > c0.completions {
		batch = float64(c1.completed-c0.completed) / float64(c1.completions-c0.completions)
	}
	r.layer("api.complete_batch_size_mean", "count", batch)
	r.layer("api.watch_delivery_us_p50", "us", percentile(deliver, 50))
	r.layer("api.bytes_per_placement", "B", float64(c1.httpBytes-c0.httpBytes)/placed)
	r.layer("api.errors", "count", float64(c1.httpErrors-c0.httpErrors))

	// wal: what the journal asked of the disk, live.
	fsw, fss, fsb := float64(c1.fs.Writes-c0.fs.Writes), float64(c1.fs.Syncs-c0.fs.Syncs), float64(c1.fs.Bytes-c0.fs.Bytes)
	r.layer("wal.fs_writes", "1/s", fsw/secs)
	r.layer("wal.fs_syncs", "1/s", fss/secs)
	r.layer("wal.bytes_per_placement", "B", fsb/placed)
	appendsPerSync, snapMS := 0.0, 0.0
	if sys.fs != nil {
		// Every accepted submit, every completion and every round is one
		// journal record.
		appends := float64(len(rtt)) + float64(c1.completed-c0.completed) + float64(st1.Rounds-st0.Rounds)
		appendsPerSync = appends / max(fss, 1)
		var snaps []float64
		for _, d := range sys.fs.Snapshots() {
			snaps = append(snaps, ms(d))
		}
		snapMS = percentile(snaps, 50)
	}
	r.layer("wal.appends_per_sync_mean", "count", appendsPerSync)
	r.layer("wal.snapshot_ms", "ms", snapMS)

	// service: the round loop's own figures, as deltas of its Stats.
	roundS := windowDist(st1.RoundTime, st0.RoundTime)
	busy := 0.0
	for _, v := range roundS {
		busy += v
	}
	inproc := []float64(nil)
	if !sys.sp.production {
		inproc = tr.durations("driver.submit")
	}
	r.layer("service.submit_us_p50", "us", percentile(inproc, 50))
	r.layer("service.rounds_per_s", "1/s", float64(st1.Rounds-st0.Rounds)/secs)
	r.layer("service.round_ms_p50", "ms", percentile(roundS, 50)*1000)
	r.layer("service.round_ms_p99", "ms", percentile(roundS, 99)*1000)
	r.layer("service.batch_events_mean", "count", lt.batchEvents())
	r.layer("service.queue_depth_mean", "count", mean(windowDist(st1.QueueDepth, st0.QueueDepth)))
	r.layer("service.internal_latency_p50_ms", "ms", percentile(windowDist(st1.PlacementLatency, st0.PlacementLatency), 50)*1000)
	r.layer("service.publish_lag_us_p50", "us", percentile(publish, 50))
	r.layer("service.loop_busy_share", "ratio", busy/secs)
	r.layer("service.stats_poll_us_p50", "us", percentile(lt.pollUS, 50))
	r.layer("service.retained_b_per_placement", "B", (float64(lt.heap1)-float64(lt.heap0))/placed)
	r.layer("service.backlogged", "count", float64(st1.Backlogged-st0.Backlogged))
	r.layer("service.stale_decisions", "count", float64(st1.StaleDecisions-st0.StaleDecisions))
	r.layer("service.stale_completions", "count", float64(st1.StaleCompletions-st0.StaleCompletions))
	r.layer("service.replacements", "count", float64(c1.replaced-c0.replaced))
	r.layer("service.watch_dropped", "count", float64(st1.WatchDropped-st0.WatchDropped))

	// template: hits, misses and which rounds still ran the solver (the
	// service samples AlgorithmRuntime only on rounds that solved).
	hits, misses := float64(st1.TemplateHits-st0.TemplateHits), float64(st1.TemplateMisses-st0.TemplateMisses)
	r.layer("template.hit_share", "ratio", hits/max(hits+misses, 1))
	r.layer("template.invalidations", "count", float64(st1.TemplateInvalidations-st0.TemplateInvalidations))
	solved := float64(st1.AlgorithmRuntime.N() - st0.AlgorithmRuntime.N())
	r.layer("template.solved_round_share", "ratio", solved/float64(max(st1.Rounds-st0.Rounds, 1)))

	// The run itself: what tracing cost.
	traced := placed / secs
	r.layer("bench.trace_overhead_share", "ratio", 1-traced/refTput)
}

// restoreResult is what reopening the crash image showed.
type restoreResult struct {
	openMS        float64
	records       int
	replayPerSec  float64
	fullRestarts0 int64
}

// checkRestore copies the journal directory as it stands — a crash image —
// reopens it, and checks that recovery loses nothing acknowledged and
// warm-starts the solver.
func (r *result) checkRestore(sys *system, opt options, accepted int64, live service.Stats) *restoreResult {
	dir, err := copyDir(sys.walDir, opt.tmp)
	if err != nil {
		r.require(false, "crash image: %v", err)
		return nil
	}
	defer os.RemoveAll(dir)
	out := &restoreResult{}

	// The journal alone first: how fast the log reads back.
	if log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone}); err == nil {
		n := 0
		t0 := time.Now()
		err = log.Replay(0, func(uint64, []byte) error { n++; return nil })
		if took := time.Since(t0).Seconds(); err == nil && took > 0 {
			out.replayPerSec = float64(n) / took
		}
		log.Close()
	}

	model := sys.sp.model(sys.files)
	t0 := time.Now()
	svc, info, err := service.Open(sys.options(dir, delayfs.New(delayfs.DefaultSyncDelay), model))
	if err != nil {
		r.require(false, "reopening the crash image: %v", err)
		return nil
	}
	out.openMS = ms(time.Since(t0))
	out.records = info.ReplayedRecords
	// Drive the restored service through its first rounds: a small job
	// must be placed, and no round may have restarted the solver from
	// scratch beyond those the live service had already counted.
	_, serr := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 8)) // 8 = probe, below
	deadline := time.Now().Add(5 * time.Second)
	for serr == nil && svc.Cluster().NumPending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := svc.Stats()
	r.require(serr == nil && st.Pending == 0, "restored service did not place a new job (submit error %v, %d pending)", serr, st.Pending)
	const probe = 8 // tasks in the job submitted below
	r.require(st.Submitted-probe >= accepted, "restored service knows %d submitted tasks, %d were acknowledged", st.Submitted-probe, accepted)
	r.require(st.SolverFullRestarts <= live.SolverFullRestarts,
		"restored service counts %d solver full restarts, the live one %d: recovery did not warm-start", st.SolverFullRestarts, live.SolverFullRestarts)
	if err := svc.Close(); err != nil {
		r.require(false, "closing the restored service: %v", err)
	}
	return out
}
