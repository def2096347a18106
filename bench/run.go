package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/service"
)

// options are the run protocol's knobs. The defaults are the protocol;
// the test's quick mode and the driver's --seconds shorten it.
type options struct {
	seed    int64
	windows int           // measured windows (tracing off)
	window  time.Duration // length of each
	warmup  time.Duration // discarded: solver scratch grows, caches fill, connections open
	setups  int           // set-ups timed per run at the least; setup_s is the median of all
	// setupFor keeps timing further set-ups (up to maxSetups) until this
	// much time has gone into them: a set-up that takes a millisecond
	// needs more than three repeats for a steady median.
	setupFor time.Duration
	drain    time.Duration // how long accepted tasks may take to show up placed after load stops
	trace    bool          // traced run instead of the measured windows
	rounds   int           // stepped-trace rounds reported
	warmRnd  int           // stepped-trace rounds run first, unreported: scratch and graph storage grow
	tmp      string        // scratch directory for journals, inside the checkout
	drivers  int           // D = min(nproc, 4)
}

const maxSetups = 200

// maxLateP50MS is the median generator lateness (first offer after due
// time) above which an open-loop run is flagged invalid: a generator that
// cannot keep its schedule falls further behind with every job, so its
// median lateness grows without bound, and then it, not the program, was
// the limit. The 99th percentile is reported (bench.late_p99_ms) but not
// judged: the generator shares the process, and with it the Ps, with the
// service, and a goroutine whose timer has fired waits up to a scheduler
// quantum or two for a P that is running the solver or the collector.
// That wait is in the latency, which is timed from due time; it does not
// thin the load, whose arrivals are tens of milliseconds apart.
const maxLateP50MS = 1

// tracedWindow is the segment of a traced run during which spans are
// recorded; the segments before and after it are its reference.
const tracedWindow = 2

// A metric is one reported number with its unit; end-to-end metrics also
// carry the per-window values they are the median of.
type metric struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Windows []float64 `json:"windows,omitempty"`
	Samples []int     `json:"samples,omitempty"` // per window, for percentiles
	Spread  float64   `json:"spread,omitempty"`  // (max − min) / median over windows
}

// A result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"` // false: the generator or a growing backlog, not the program, set the numbers
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Gate      []string          `json:"gate_failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

func (r *result) require(ok bool, format string, args ...any) {
	if !ok {
		r.Gate = append(r.Gate, fmt.Sprintf(format, args...))
	}
}

// mark is what the coordinator reads at a window boundary.
type mark struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64 // MemStats.TotalAlloc
	pending int
}

func takeMark(svc *service.Service) mark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mark{at: time.Now(), cpu: cpuTime(), alloc: m.TotalAlloc, pending: svc.Cluster().NumPending()}
}

// runWorkload runs one workload under the protocol: set-up, warm-up,
// measured windows (or the traced run), drain, correctness gate.
func runWorkload(sp *spec, opt options) (*result, error) {
	res := &result{Workload: sp.name, Valid: true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
		opt.setups, opt.setupFor = 1, 0
	}

	// Set-up, timed from scratch each time; the last one is used.
	var sys *system
	var setupS []float64
	setupStart := time.Now()
	for i := 0; i < opt.setups || (i < maxSetups && time.Since(setupStart) < opt.setupFor); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = build(sp, opt.drivers, opt.tmp, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	l := newLoad(sp, sys.door, opt.drivers, tr)
	l.drainFor = opt.drain
	events, cancelWatch, err := sys.door.watch()
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	l.obsWG.Add(2)
	go l.watcher(events)
	go l.completer()

	// The measured span is cut into timed segments, and a window is the
	// union of two of them placed symmetrically about the middle of the
	// span (first+last, second+second-to-last, ...). The service slows as
	// the state it retains grows — on full-64 the last third of a run
	// places a quarter fewer tasks per second than the first — so
	// consecutive windows would differ by that drift and their median
	// would be whichever segment fell in the middle; mirrored windows all
	// see the same average state, and differ only by what disturbed them.
	phases, segment := 2*opt.windows, opt.window/2
	windows := make([][2]int, opt.windows) // segments are numbered from 1
	for i := range windows {
		windows[i] = [2]int{i + 1, phases - i}
	}
	if opt.trace {
		// The traced segment sits between two reference segments with
		// tracing off, which together are the run's one window: a service
		// that slows as its state grows does not pass for tracing overhead
		// (or hide it).
		phases, segment = 3, opt.window
		windows = [][2]int{{tracedWindow - 1, tracedWindow + 1}}
	}
	span := opt.warmup + time.Duration(phases)*segment
	epoch := time.Now()
	if sp.open != nil {
		l.wg.Add(1)
		go l.generator(schedule(sp, opt.seed, span+time.Second, sys.files), epoch)
	}
	if sp.closed() {
		for d := 0; d < opt.drivers; d++ {
			l.wg.Add(1)
			go l.closedDriver(d, opt.seed)
		}
	}

	// The coordinator: sleep to each boundary, move the watcher to the
	// next window, read the process counters.
	marks := make([]mark, 0, phases+1)
	var lt *liveTrace
	for w := 0; w <= phases; w++ {
		time.Sleep(time.Until(epoch.Add(opt.warmup + time.Duration(w)*segment)))
		if opt.trace && w == tracedWindow {
			lt.finish(sys)
			tr.on.Store(false)
		}
		l.win.Store(int32(w + 1))
		marks = append(marks, takeMark(sys.svc))
		if opt.trace && w == tracedWindow-1 {
			lt = startLiveTrace(sys, l, tr)
			tr.on.Store(true)
		}
	}
	l.halt()
	unplaced := l.drain(opt.drain)
	final := sys.svc.Stats()

	// End-to-end metrics, per window and as the median of windows.
	l.mu.Lock()
	var tput, p50, p95, p99, cpu, alloc []float64
	var samples []int
	for _, win := range windows {
		var lat []float64
		var secs float64
		var cpuT time.Duration
		var bytes uint64
		for _, s := range win {
			lat = append(lat, l.latMS[s]...)
			secs += marks[s].at.Sub(marks[s-1].at).Seconds()
			cpuT += marks[s].cpu - marks[s-1].cpu
			bytes += marks[s].alloc - marks[s-1].alloc
		}
		n := float64(len(lat))
		samples = append(samples, len(lat))
		tput = append(tput, n/secs)
		p50 = append(p50, percentile(lat, 50))
		p95 = append(p95, percentile(lat, 95))
		p99 = append(p99, percentile(lat, 99))
		cpu = append(cpu, us(cpuT)/max(n, 1))
		alloc = append(alloc, float64(bytes)/1024/max(n, 1))
	}
	latePct := percentile(l.lateMS, 99)
	l.mu.Unlock()
	e2e := func(name, unit string, vals []float64, n []int) {
		res.EndToEnd[name] = metric{Unit: unit, Value: median(vals), Windows: vals, Samples: n, Spread: spread(vals)}
	}
	e2e("setup_s", "s", setupS, nil)
	e2e("placements_per_s", "tasks/s", tput, samples)
	e2e("place_latency_p50_ms", "ms", p50, samples)
	e2e("place_latency_p95_ms", "ms", p95, samples)
	e2e("cpu_us_per_placement", "us", cpu, samples)
	e2e("alloc_kb_per_placement", "KiB", alloc, samples)

	// Validity of the run itself (open loop): the generator kept its
	// schedule, and the backlog did not grow beyond one second's burst.
	if sp.open != nil {
		burst := 0
		for _, ph := range sp.open.phases {
			burst = max(burst, ph.jobsPerSec*sp.open.tasksHi)
		}
		grew := marks[phases].pending - marks[0].pending
		late50 := percentile(l.lateMS, 50)
		res.Notes = append(res.Notes, fmt.Sprintf("generator lateness p50 %.3f ms, p99 %.3f ms over %d jobs; pending %d at start of measurement, %d at end",
			late50, latePct, len(l.lateMS), marks[0].pending, marks[phases].pending))
		if late50 > maxLateP50MS || grew > burst {
			res.Valid = false
		}
	}

	accepted := res.gate(sys, l, final, unplaced, opt.drain)

	if opt.trace {
		res.layerMetrics(sys, l, tr, lt, tput[0])
		res.layer("bench.late_p99_ms", "ms", latePct)
		// The 99th percentile did not hold a bound run to run (README,
		// "Bound calibration"), so it is reported here, from the reference
		// window, and not gated.
		res.layer("bench.place_latency_p99_ms", "ms", p99[0])
	}
	res.layer("bench.failed_share", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))

	var restore *restoreResult
	if sp.production {
		// The crash image: the journal as a kill -9 would leave it now —
		// drivers stopped, service idle but not closed, so no final
		// snapshot has been cut.
		restore = res.checkRestore(sys, opt, accepted, final)
	}

	cancelWatch()
	l.obsWG.Wait()
	err = sys.close()
	sys = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	if opt.trace {
		st, err := runStepped(sp, opt, lt, tr)
		if err != nil {
			return nil, fmt.Errorf("stepped trace: %w", err)
		}
		res.steppedMetrics(st, restore)
		res.require(st.feasible == nil, "stepped trace: final graph infeasible: %v", st.feasible)
		path := "bench-trace-" + sp.name + ".json"
		if err := tr.write(path, sp.name, opt.seed); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
	}
	res.Correct = len(res.Gate) == 0
	return res, nil
}

// gate is the correctness gate on the live system once the load has
// stopped and drained: it counts what failed and records every invariant
// that does not hold. It returns the number of tasks the service accepted,
// prefill included.
func (r *result) gate(sys *system, l *load, final service.Stats, unplaced int64, drained time.Duration) int64 {
	r.Attempted = l.attempted.Load()
	r.Failed = l.submitFail.Load() + unplaced + final.WatchDropped
	if e := l.firstErr.Load(); e != nil {
		r.require(false, "%d front-door errors, first: %v", l.errs.Load(), *e)
	}
	r.require(sys.svc.Err() == nil, "scheduling loop died: %v", sys.svc.Err())
	r.require(unplaced == 0, "%d acknowledged tasks not observed placed %v after load stopped", unplaced, drained)
	r.require(final.WatchDropped == 0, "watch stream dropped %d events", final.WatchDropped)
	cl := sys.svc.Cluster()
	cl.Machines(func(m *cluster.Machine) {
		r.require(m.Running() <= m.Slots, "machine %d runs %d tasks in %d slots", m.ID, m.Running(), m.Slots)
	})
	pend, run, done, failed := cl.CountStates()
	accepted := l.acked.Load() + int64(sys.prefilled)
	r.require(int64(pend+run+done+failed) == accepted && final.Submitted == accepted,
		"task conservation: accepted %d, cluster holds %d pending + %d running + %d completed + %d failed, service counts %d submitted",
		accepted, pend, run, done, failed, final.Submitted)
	r.require(int64(done) <= final.Placed, "%d tasks completed but only %d placed", done, final.Placed)
	return accepted
}
