package main

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/service"
)

// maxSegments bounds the number of timed segments of one run (warm-up and
// drain get a slot each on top).
const maxSegments = 8

// completeBatch caps one completion call, as the issue's workloads do.
const completeBatch = 256

// A jobRec is one submitted job as the harness sees it.
type jobRec struct {
	start  time.Time       // submit-call start (closed loop) or due time (open loop)
	tasks  int             // tasks in the job
	placed int             // distinct tasks observed placed
	seen   []uint64        // bitset over task index: observed placed at least once
	durs   []time.Duration // open loop: per-task run time once placed
	driver int             // closed loop: who to tell when the job is done
	slot   int             // closed loop: the in-flight slot the job occupies
}

// early is a placement that reached the watcher before the submitter had
// registered the job (the scheduler can place a job before Submit returns
// to its caller); it is folded in at registration.
type early struct {
	task cluster.TaskID
	at   time.Time
	win  int
	lag  time.Duration // Placement.Latency, the service's own figure
}

// load is the state shared by the goroutines that offer load and observe
// placements: the job table, the latency samples per window, and the
// counters the correctness gate reads.
type load struct {
	sp   *spec
	door door
	tr   *tracer // nil unless this run records spans

	mu     sync.Mutex
	jobs   map[cluster.JobID]*jobRec
	early  map[cluster.JobID][]early
	latMS  [maxSegments + 2][]float64 // per segment: submit/due → watcher receipt, per task
	outMS  [maxSegments + 2][]float64 // per segment: receipt − start − Placement.Latency
	lateMS []float64                  // open loop: first offer − due, per job

	win atomic.Int32 // segment the watcher is filling

	drainFor time.Duration // how long after the halt refused jobs keep being offered

	attempted   atomic.Int64 // tasks in jobs whose submission was attempted
	acked       atomic.Int64 // tasks in jobs the service accepted
	submitFail  atomic.Int64 // tasks in jobs whose submission failed for good
	firstPlaced atomic.Int64 // distinct tasks observed placed
	replaced    atomic.Int64 // placed events for tasks already observed placed
	refusals    atomic.Int64 // ErrBacklogged answers (retried, not failures)
	completions atomic.Int64 // completion calls made
	completed   atomic.Int64 // task ids sent in them
	errs        atomic.Int64 // front-door errors other than refusals

	done []chan int // closed loop: per driver, slots whose job finished

	stop     chan struct{} // closed: stop offering load
	stopOnce sync.Once
	wg       sync.WaitGroup // drivers / generator
	obsWG    sync.WaitGroup // watcher + completer
	cmsgs    chan cmsg
	firstErr atomic.Pointer[error]
}

func (l *load) fail(err error) {
	l.errs.Add(1)
	l.firstErr.CompareAndSwap(nil, &err)
}

// cmsg is what the watcher hands the completer after each burst of events.
type cmsg struct {
	now      []cluster.TaskID // complete at once (closed loop)
	timed    []timedTask      // complete when due (open loop)
	finished []finishedJob    // closed loop: tell these drivers after completing
}

type timedTask struct {
	due  time.Time
	task cluster.TaskID
}

type finishedJob struct{ driver, slot int }

func newLoad(sp *spec, d door, drivers int, tr *tracer) *load {
	l := &load{
		sp: sp, door: d, tr: tr,
		jobs:  make(map[cluster.JobID]*jobRec),
		early: make(map[cluster.JobID][]early),
		stop:  make(chan struct{}),
		// One message per watcher burst; the watcher must never block on
		// the completer or receipt timestamps would include its backlog.
		cmsgs: make(chan cmsg, 1<<14),
	}
	for i := 0; i < drivers; i++ {
		l.done = append(l.done, make(chan int, sp.inFlight()))
	}
	return l
}

// register makes a submitted job known and folds in placements that
// arrived before it.
func (l *load) register(id cluster.JobID, rec *jobRec) {
	rec.seen = make([]uint64, (rec.tasks+63)/64)
	var msg cmsg
	l.mu.Lock()
	l.jobs[id] = rec
	if ev := l.early[id]; ev != nil {
		delete(l.early, id)
		for _, e := range ev {
			l.placedLocked(rec, e.task, e.at, e.win, e.lag, &msg)
		}
	}
	l.mu.Unlock()
	l.send(msg)
}

func (l *load) send(msg cmsg) {
	if len(msg.now)+len(msg.timed)+len(msg.finished) > 0 {
		l.cmsgs <- msg
	}
}

// placedLocked accounts one Placed event for a registered job.
func (l *load) placedLocked(rec *jobRec, task cluster.TaskID, at time.Time, win int, lag time.Duration, msg *cmsg) {
	idx := int(uint32(task)) // task IDs are job<<32 | index (cluster.JobOfTask)
	if idx >= rec.tasks {
		l.fail(fmt.Errorf("placement of task %d: index %d outside its job's %d tasks", task, idx, rec.tasks))
		return
	}
	if rec.durs != nil {
		// Every placement gets its own completion: if a machine removal
		// evicts the task before this one is due, the eviction's
		// re-placement schedules the next, and the stale one is counted by
		// the service as a stale completion.
		msg.timed = append(msg.timed, timedTask{due: at.Add(rec.durs[idx]), task: task})
	} else {
		msg.now = append(msg.now, task)
	}
	if rec.seen[idx/64]&(1<<(idx%64)) != 0 {
		l.replaced.Add(1)
		return
	}
	rec.seen[idx/64] |= 1 << (idx % 64)
	rec.placed++
	l.firstPlaced.Add(1)
	total := at.Sub(rec.start)
	l.latMS[win] = append(l.latMS[win], ms(total))
	l.outMS[win] = append(l.outMS[win], ms(total-lag))
	if rec.placed == rec.tasks && rec.durs == nil {
		msg.finished = append(msg.finished, finishedJob{rec.driver, rec.slot})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// watcher reads the single watch stream, stamps each burst of events on
// receipt, and hands completions to the completer.
func (l *load) watcher(ch <-chan service.Placement) {
	defer l.obsWG.Done()
	defer close(l.cmsgs)
	for p := range ch {
		at := time.Now()
		win := int(l.win.Load())
		var msg cmsg
		l.mu.Lock()
		for {
			if p.Kind == core.DecisionPlaced { // migrations and preemptions carry no latency
				if rec := l.jobs[p.Job]; rec != nil {
					l.placedLocked(rec, p.Task, at, win, p.Latency, &msg)
				} else {
					l.early[p.Job] = append(l.early[p.Job], early{p.Task, at, win, p.Latency})
				}
			}
			if len(ch) == 0 {
				break
			}
			var ok bool
			if p, ok = <-ch; !ok {
				break
			}
		}
		l.mu.Unlock()
		l.send(msg)
	}
}

// completer reports task completions: at once in the closed loop (then
// releasing the drivers whose jobs are done), when due in the open loop.
func (l *load) completer() {
	defer l.obsWG.Done()
	var due taskHeap
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var batch []cluster.TaskID
	flush := func() {
		for len(batch) > 0 {
			n := min(len(batch), completeBatch)
			l.complete(batch[:n])
			batch = batch[n:]
		}
		batch = batch[:0]
	}
	msgs := l.cmsgs
	for msgs != nil || len(due) > 0 {
		select {
		case m, ok := <-msgs:
			if !ok {
				// Watch stream over: nothing placed from here on can be
				// observed, so pending timed completions are dropped.
				return
			}
			batch = append(batch, m.now...)
			flush()
			for _, f := range m.finished {
				l.done[f.driver] <- f.slot
			}
			for _, t := range m.timed {
				heap.Push(&due, t)
			}
		case now := <-tick.C:
			for len(due) > 0 && !due[0].due.After(now) {
				batch = append(batch, heap.Pop(&due).(timedTask).task)
			}
			flush()
		}
	}
}

func (l *load) complete(ids []cluster.TaskID) {
	var id uint64
	var start time.Time
	if l.tr.enabled() {
		id, start = l.tr.begin()
	}
	err := l.door.complete(id, ids)
	if id != 0 {
		l.tr.end(id, "driver.complete", int64(len(ids)), start)
	}
	l.completions.Add(1)
	l.completed.Add(int64(len(ids)))
	if err != nil && !errors.Is(err, service.ErrClosed) {
		l.fail(fmt.Errorf("complete: %w", err))
	}
}

type taskHeap []timedTask

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(timedTask)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// submit offers one job and registers it if accepted. start is the instant
// latency is measured from.
func (l *load) submit(driver int, class cluster.JobClass, priority int, specs []cluster.TaskSpec, rec *jobRec) error {
	var id uint64
	var t0 time.Time
	if l.tr.enabled() {
		id, t0 = l.tr.begin()
	}
	job, err := l.door.submit(driver, id, class, priority, specs)
	if id != 0 {
		l.tr.end(id, "driver.submit", int64(job), t0)
	}
	if err != nil {
		return err
	}
	l.acked.Add(int64(len(specs)))
	l.register(job, rec)
	return nil
}

// closedDriver keeps the spec's number of jobs outstanding: a slot resubmits as
// soon as every task of its job has been observed placed and reported
// complete.
func (l *load) closedDriver(driver int, seed int64) {
	defer l.wg.Done()
	stream := newJobStream(l.sp, seed, driver)
	issue := func(slot int) bool {
		n := stream.next(slot)
		specs := make([]cluster.TaskSpec, n)
		for i := range specs {
			specs[i].InputFile = -1
		}
		l.attempted.Add(int64(n))
		rec := &jobRec{start: time.Now(), tasks: n, driver: driver, slot: slot}
		var giveUp time.Time
		for {
			err := l.submit(driver, cluster.Batch, 0, specs, rec)
			if err == nil {
				return true
			}
			if !errors.Is(err, service.ErrBacklogged) {
				l.submitFail.Add(int64(n))
				l.fail(fmt.Errorf("submit: %w", err))
				return false
			}
			// Refused by the admission ceiling: offer the job again a
			// millisecond later, its latency still counted from the first
			// attempt. After the halt it is offered for drainFor more.
			l.refusals.Add(1)
			select {
			case <-l.stop:
				if giveUp.IsZero() {
					giveUp = time.Now().Add(l.drainFor)
				} else if time.Now().After(giveUp) {
					l.submitFail.Add(int64(n))
					return false
				}
			default:
			}
			time.Sleep(time.Millisecond)
		}
	}
	for slot := 0; slot < l.sp.inFlight(); slot++ {
		if !issue(slot) {
			return
		}
	}
	for {
		select {
		case <-l.stop:
			return
		case slot := <-l.done[driver]:
			select {
			case <-l.stop:
				return
			default:
			}
			if !issue(slot) {
				return
			}
		}
	}
}

// generator walks the open-loop schedule: every arrival is offered when
// due, whatever became of the earlier ones. A refused job waits in the
// FIFO (ahead of everything due after it) and is offered again every
// millisecond; its latency still counts from its due time. Once load is
// halted nothing new becomes due, but jobs already in the FIFO keep being
// offered until drainFor has passed — only then do they count as failed —
// and machines that are down are brought back.
func (l *load) generator(sched []arrival, epoch time.Time) {
	defer l.wg.Done()
	type queued struct {
		a   *arrival
		rec *jobRec
	}
	var fifo []queued
	down := make(map[cluster.MachineID]bool)
	machineOp := func(a *arrival) {
		if err := l.door.machineOp(a.machine, a.restore); err != nil {
			l.fail(fmt.Errorf("machine op: %w", err))
		}
		down[a.machine] = !a.restore
	}
	next := 0
	var giveUp time.Time // set once halted
	for next < len(sched) || len(fifo) > 0 {
		now := time.Now()
		if giveUp.IsZero() {
			select {
			case <-l.stop:
				giveUp = now.Add(l.drainFor)
				for ; next < len(sched); next++ {
					if a := &sched[next]; a.specs == nil && a.restore && down[a.machine] {
						machineOp(a)
					}
				}
			default:
			}
		} else if now.After(giveUp) {
			for _, q := range fifo {
				l.submitFail.Add(int64(len(q.a.specs)))
			}
			return
		}
		for next < len(sched) && !epoch.Add(sched[next].due).After(now) {
			a := &sched[next]
			next++
			if a.specs == nil {
				machineOp(a)
				continue
			}
			due := epoch.Add(a.due)
			durs := make([]time.Duration, len(a.specs))
			for i, s := range a.specs {
				durs[i] = s.Duration
			}
			l.attempted.Add(int64(len(a.specs)))
			l.mu.Lock()
			l.lateMS = append(l.lateMS, ms(now.Sub(due)))
			l.mu.Unlock()
			fifo = append(fifo, queued{a, &jobRec{start: due, tasks: len(a.specs), durs: durs}})
		}
		refused := false
		for len(fifo) > 0 {
			q := fifo[0]
			err := l.submit(0, q.a.class, q.a.priority, q.a.specs, q.rec)
			if errors.Is(err, service.ErrBacklogged) && l.sp.open.retryRefused {
				l.refusals.Add(1)
				refused = true
				break
			}
			if err != nil {
				l.submitFail.Add(int64(len(q.a.specs)))
				l.fail(fmt.Errorf("submit: %w", err))
			}
			fifo = fifo[1:]
		}
		var wait time.Duration
		switch {
		case next < len(sched):
			wait = time.Until(epoch.Add(sched[next].due))
			if refused {
				wait = min(wait, time.Millisecond)
			}
		case refused:
			wait = time.Millisecond
		default:
			return // schedule exhausted, nothing queued
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			if giveUp.IsZero() {
				select {
				case <-l.stop:
					t.Stop()
				case <-t.C:
				}
			} else {
				<-t.C
			}
		}
	}
}

// halt stops offering load and waits for the drivers to return.
func (l *load) halt() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// drain waits until every accepted task has been observed placed, up to
// limit, and reports how many never were.
func (l *load) drain(limit time.Duration) int64 {
	deadline := time.Now().Add(limit)
	for l.firstPlaced.Load() < l.acked.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return l.acked.Load() - l.firstPlaced.Load()
}
