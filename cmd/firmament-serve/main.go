// firmament-serve is a closed-loop load driver and network server for the
// long-running scheduling service. It runs in three modes:
//
//   - default: build an in-process service and hammer its front door from
//     N concurrent submitters, completing every task the moment it is
//     placed, and report sustained placement throughput — aggregate and
//     per submitter — with latency percentiles. The CI contention smoke
//     runs `-submitters 32 -duration 2s` and fails on a zero-placement or
//     backlogged-deadlock outcome (the driver exits non-zero on either).
//
//   - -listen addr: serve the HTTP/JSON front door (internal/api) over a
//     fresh service and block until SIGINT/SIGTERM.
//
//   - -remote url: drive a front door served elsewhere — the same closed
//     loop, but submissions, completions (batched), placements (streamed
//     NDJSON) and stats all travel the network path. The CI network smoke
//     pairs this with -listen and fails on zero placements.
//
// Usage:
//
//	firmament-serve -submitters 8 -duration 5s
//	firmament-serve -submitters 32 -duration 2s          # scaling mode: per-submitter rates
//	firmament-serve -machines 256 -slots 16 -tasks-per-job 64 -mode relaxation
//	firmament-serve -max-pending-factor 4                # backpressure: SubmitWait past 4x slots
//	firmament-serve -listen 127.0.0.1:9090               # network server
//	firmament-serve -remote http://127.0.0.1:9090 -submitters 8   # network load generator
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"firmament"
	"firmament/internal/faultfs"
)

// jobTracker correlates placement events with in-flight jobs. Placements
// can arrive before the submitter has registered its job (submission and
// the scheduling loop race), so counts accumulate for unknown jobs too.
type jobTracker struct {
	mu      sync.Mutex
	seen    map[firmament.JobID]map[firmament.TaskID]bool
	need    map[firmament.JobID]int
	waiters map[firmament.JobID]chan struct{}
	done    map[firmament.JobID]bool // finished jobs: late re-placements are ignored
}

func newJobTracker() *jobTracker {
	return &jobTracker{
		seen:    make(map[firmament.JobID]map[firmament.TaskID]bool),
		need:    make(map[firmament.JobID]int),
		waiters: make(map[firmament.JobID]chan struct{}),
		done:    make(map[firmament.JobID]bool),
	}
}

// register declares a job with n tasks and returns a channel closed when
// every task has been placed at least once.
func (tr *jobTracker) register(j firmament.JobID, n int) <-chan struct{} {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ch := make(chan struct{})
	tr.need[j] = n
	tr.waiters[j] = ch
	if len(tr.seen[j]) >= n {
		tr.finishLocked(j)
	}
	return ch
}

// placed records one placement event.
func (tr *jobTracker) placed(j firmament.JobID, t firmament.TaskID) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done[j] {
		return // re-placement after a preemption on a finished job
	}
	m := tr.seen[j]
	if m == nil {
		m = make(map[firmament.TaskID]bool)
		tr.seen[j] = m
	}
	m[t] = true
	if n, ok := tr.need[j]; ok && len(m) >= n {
		tr.finishLocked(j)
	}
}

func (tr *jobTracker) finishLocked(j firmament.JobID) {
	close(tr.waiters[j])
	delete(tr.waiters, j)
	delete(tr.need, j)
	delete(tr.seen, j)
	tr.done[j] = true
}

// door abstracts the front door the closed loop drives: the in-process
// service or a remote one over HTTP. Both speak the same surface, so the
// same driver measures either path.
type door interface {
	submit(class firmament.JobClass, priority, tasks int) (firmament.JobID, error)
	complete(ids []firmament.TaskID) error
	watch() (<-chan firmament.Placement, func(), error)
	watchErr() error // abnormal watch-stream end, nil otherwise
	stats() (firmament.APIStats, error)
	close() error
}

// localDoor drives an in-process service.
type localDoor struct {
	svc  *firmament.SchedulerService
	wait bool // park on backpressure (SubmitWait) instead of shedding
}

func (d *localDoor) submit(class firmament.JobClass, priority, tasks int) (firmament.JobID, error) {
	f := d.svc.Submit
	if d.wait {
		f = d.svc.SubmitWait
	}
	job, err := f(class, priority, make([]firmament.TaskSpec, tasks))
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}

func (d *localDoor) complete(ids []firmament.TaskID) error {
	for _, id := range ids {
		if err := d.svc.Complete(id); err != nil {
			return err
		}
	}
	return nil
}

func (d *localDoor) watch() (<-chan firmament.Placement, func(), error) {
	ch, cancel := d.svc.Watch()
	return ch, cancel, nil
}

func (d *localDoor) watchErr() error { return nil } // in-process channels cannot corrupt

func (d *localDoor) stats() (firmament.APIStats, error) {
	return firmament.APIStatsFromService(d.svc.Stats()), nil
}

func (d *localDoor) close() error { return d.svc.Close() }

// remoteDoor drives a front door across the network.
type remoteDoor struct {
	cli  *firmament.APIClient
	wait bool
	ws   *firmament.APIWatchStream
}

func (d *remoteDoor) submit(class firmament.JobClass, priority, tasks int) (firmament.JobID, error) {
	var job *firmament.RemoteJob
	var err error
	if d.wait {
		job, err = d.cli.SubmitWait(context.Background(), class, priority,
			make([]firmament.TaskSpec, tasks))
	} else {
		job, err = d.cli.Submit(class, priority, make([]firmament.TaskSpec, tasks))
	}
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}

func (d *remoteDoor) complete(ids []firmament.TaskID) error { return d.cli.CompleteBatch(ids) }

func (d *remoteDoor) watch() (<-chan firmament.Placement, func(), error) {
	ws, err := d.cli.Watch(context.Background())
	if err != nil {
		return nil, nil, err
	}
	d.ws = ws
	return ws.C, ws.Cancel, nil
}

// watchErr reports an abnormal end of the placement stream (transport
// failure, wire corruption), so a hung closed loop can name its real cause.
func (d *remoteDoor) watchErr() error {
	if d.ws == nil {
		return nil
	}
	return d.ws.Err()
}

func (d *remoteDoor) stats() (firmament.APIStats, error) { return d.cli.Stats() }

// close leaves the remote server running; the driver only detaches.
func (d *remoteDoor) close() error { return nil }

// defaultMode is the -mode flag's default.
const defaultMode = "firmament"

// schedulerConfig builds the scheduler configuration from the -mode flag.
// It is the only place flags shape that configuration, so the test that
// the flag defaults yield firmament.DefaultConfig() — the configuration the
// benchmark and the test suites measure — covers the shipped server.
func schedulerConfig(mode string) (firmament.Config, error) {
	m, ok := map[string]firmament.SolverMode{
		"firmament":        firmament.ModeFirmament,
		"relaxation":       firmament.ModeRelaxationOnly,
		"inc-cost-scaling": firmament.ModeIncrementalCostScaling,
		"quincy":           firmament.ModeQuincy,
	}[mode]
	if !ok {
		return firmament.Config{}, fmt.Errorf("unknown mode %q", mode)
	}
	cfg := firmament.DefaultConfig()
	cfg.Mode = m
	return cfg, nil
}

func main() {
	var (
		submitters  = flag.Int("submitters", 8, "concurrent closed-loop submitters")
		duration    = flag.Duration("duration", 5*time.Second, "measurement duration")
		machines    = flag.Int("machines", 64, "cluster size")
		perRack     = flag.Int("machines-per-rack", 16, "machines per rack")
		slots       = flag.Int("slots", 32, "slots per machine")
		tasksPerJob = flag.Int("tasks-per-job", 32, "tasks per submitted job")
		interval    = flag.Duration("round-interval", time.Millisecond, "minimum gap between scheduling rounds")
		pendingFac  = flag.Float64("max-pending-factor", 0,
			"backpressure: block submission once pending > factor x slots (0 disables)")
		perSub = flag.Bool("per-submitter", true, "print per-submitter throughput")
		mode   = flag.String("mode", defaultMode,
			"solver mode: firmament | relaxation | inc-cost-scaling | quincy")
		listen = flag.String("listen", "",
			"serve the HTTP front door on this address instead of driving load")
		remote = flag.String("remote", "",
			"drive a remote front door at this base URL instead of an in-process service")
		walDir = flag.String("wal-dir", "",
			"durable mode: journal every event to this directory and recover from it on start")
		fsync = flag.String("fsync", "batch",
			"journal fsync policy: always | batch | none (all flush to the OS before acking)")
		snapEvery = flag.Int64("snapshot-every", 0,
			"cut a cluster+graph snapshot every N rounds (0 = default 1024)")
		replay = flag.String("replay", "",
			"restore a recorded journal directory, report the recovered state, and exit")
		templates = flag.Bool("templates", false,
			"enable the placement-template fast path: cache solver decisions for recurring job shapes "+
				"and commit repeats without a solve")
		onWALFailure = flag.String("on-wal-failure", "fail-stop",
			"durable mode: response to a permanent WAL failure: fail-stop | degrade "+
				"(degrade keeps scheduling volatile and re-arms durability when the disk heals)")
		probeInterval = flag.Duration("wal-probe-interval", time.Second,
			"durable mode: how often a degraded service probes the sick disk for recovery")
		faultWritesBefore = flag.Int("fault-after-writes", 0,
			"fault injection (testing): fail every WAL write with ENOSPC after this many "+
				"succeed (0 disables)")
		faultHealAfter = flag.Duration("fault-heal-after", 0,
			"fault injection (testing): heal the injected fault this long after startup "+
				"(0 = never heal)")
	)
	flag.Parse()

	if *listen != "" && *remote != "" {
		log.Fatal("-listen and -remote are mutually exclusive")
	}

	if *perRack > *machines {
		*perRack = *machines // small clusters: one partial rack, not a padded one
	}
	topo := firmament.Topology{
		Racks:           (*machines + *perRack - 1) / *perRack,
		MachinesPerRack: *perRack,
		SlotsPerMachine: *slots,
	}

	cfg, err := schedulerConfig(*mode)
	if err != nil {
		log.Fatal(err)
	}
	scfg := firmament.ServiceConfig{
		RoundInterval:    *interval,
		MaxPendingFactor: *pendingFac,
		Templates:        *templates,
	}

	sync, err := firmament.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := firmament.ParseWALFailurePolicy(*onWALFailure)
	if err != nil {
		log.Fatal(err)
	}
	dur := firmament.DurabilityConfig{
		Sync: sync, SnapshotEvery: *snapEvery,
		OnWALFailure: policy, ProbeInterval: *probeInterval,
	}
	if *faultWritesBefore > 0 {
		// Scripted disk sickness for the fault smoke: WAL writes start
		// failing with ENOSPC after the configured number succeed, and the
		// disk optionally heals on a timer. The injected FS wraps the real
		// one, so everything written before (and after Heal) is real data.
		ffs := faultfs.New()
		ffs.Inject(faultfs.Fault{
			Op: faultfs.OpWrite, Path: "wal-",
			After: *faultWritesBefore, Count: faultfs.Persistent,
			Err: syscall.ENOSPC,
		})
		dur.FS = ffs
		if *faultHealAfter > 0 {
			time.AfterFunc(*faultHealAfter, func() {
				log.Printf("fault injection: healing injected ENOSPC (%d faults fired)", ffs.Fired())
				ffs.Heal()
			})
		}
		log.Printf("fault injection: WAL writes fail with ENOSPC after %d (heal after %v)",
			*faultWritesBefore, *faultHealAfter)
	}
	durOpts := func(dir string) firmament.ServiceOptions {
		d := dur
		d.Dir = dir
		return firmament.ServiceOptions{
			Topology: topo,
			Model: func(cl *firmament.Cluster) firmament.CostModel {
				return firmament.NewLoadSpreadPolicy(cl)
			},
			Scheduler:  cfg,
			Service:    scfg,
			Durability: d,
		}
	}

	if *replay != "" {
		runReplay(durOpts(*replay))
		return
	}

	if *listen != "" {
		runServer(*listen, topo, cfg, scfg, *mode, *walDir, durOpts)
		return
	}

	var d door
	if *remote != "" {
		cli := firmament.Dial(*remote)
		if err := waitReady(cli, 10*time.Second); err != nil {
			log.Fatalf("remote front door %s not ready: %v", *remote, err)
		}
		fmt.Printf("remote front door: %s\n", *remote)
		d = &remoteDoor{cli: cli, wait: *pendingFac > 0}
	} else {
		svc, cl := openService(topo, cfg, scfg, *walDir, durOpts)
		fmt.Printf("cluster: %d machines in %d racks, %d slots\n",
			cl.NumMachines(), cl.NumRacks(), cl.TotalSlots())
		d = &localDoor{svc: svc, wait: *pendingFac > 0}
	}
	fmt.Printf("driver: mode %s, %d submitters x %d tasks/job, round interval %v, max-pending-factor %g\n",
		*mode, *submitters, *tasksPerJob, *interval, *pendingFac)

	runDriver(d, *submitters, *tasksPerJob, *duration, *perSub, *templates)
}

// openService builds the in-process service: plain in-memory, or — with
// -wal-dir — durable, recovering whatever a previous run journaled there.
func openService(topo firmament.Topology, cfg firmament.Config, scfg firmament.ServiceConfig,
	walDir string, durOpts func(string) firmament.ServiceOptions) (*firmament.SchedulerService, *firmament.Cluster) {
	if walDir == "" {
		cl := firmament.NewCluster(topo)
		return firmament.NewService(cl, firmament.NewLoadSpreadPolicy(cl), cfg, scfg), cl
	}
	svc, info, err := firmament.OpenService(durOpts(walDir))
	if err != nil {
		log.Fatalf("open journal %s: %v", walDir, err)
	}
	logRestore(walDir, info)
	return svc, svc.Cluster()
}

// logRestore narrates what recovery found, so operators (and the crash
// smoke) can see a restart recovered rather than restarted empty.
func logRestore(dir string, info *firmament.RestoreInfo) {
	if info.Restored || info.ReplayedRecords > 0 {
		log.Printf("recovered journal %s: snapshot at round %d, %d records (%d rounds) replayed, "+
			"%d pending ops; %d running / %d pending tasks",
			dir, info.SnapshotRound, info.ReplayedRecords, info.ReplayedRounds,
			info.PendingOps, info.RunningTasks, info.PendingTasks)
	} else {
		log.Printf("journal %s: fresh (nothing to recover)", dir)
	}
}

// runReplay restores a recorded journal into a detached in-memory service,
// reports the recovered state, and exits — the -replay inspection workflow.
func runReplay(opts firmament.ServiceOptions) {
	svc, info, err := firmament.ReplayJournal(opts)
	if err != nil {
		log.Fatalf("replay %s: %v", opts.Durability.Dir, err)
	}
	logRestore(opts.Durability.Dir, info)
	cl := svc.Cluster()
	st := svc.Stats()
	fmt.Printf("cluster: %d machines in %d racks, %d slots\n",
		cl.NumMachines(), cl.NumRacks(), cl.TotalSlots())
	fmt.Printf("state: %d rounds, %d submitted, %d placed, %d completed, "+
		"%d running, %d pending\n",
		st.Rounds, st.Submitted, st.Placed, st.Completed, st.Running, st.Pending)
	fmt.Printf("churn: %d migrated, %d preempted, %d stale completions, "+
		"%d stale machine ops, %d stale decisions\n",
		st.Migrated, st.Preempted, st.StaleCompletions, st.StaleMachineOps, st.StaleDecisions)
	fmt.Printf("solver: %d warm starts, %d full restarts\n",
		st.SolverWarmStarts, st.SolverFullRestarts)
	if st.TemplateHits+st.TemplateMisses+st.TemplateInvalidations > 0 {
		fmt.Printf("templates: %d hits, %d misses, %d invalidations\n",
			st.TemplateHits, st.TemplateMisses, st.TemplateInvalidations)
	}
	if err := svc.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
}

// runServer serves the HTTP front door until SIGINT/SIGTERM, then closes
// the service (ending watch streams, 503ing new work, and — in durable
// mode — cutting a final snapshot) and drains the listener.
func runServer(addr string, topo firmament.Topology, cfg firmament.Config,
	scfg firmament.ServiceConfig, mode, walDir string,
	durOpts func(string) firmament.ServiceOptions) {
	svc, cl := openService(topo, cfg, scfg, walDir, durOpts)
	srv := &http.Server{Addr: addr, Handler: firmament.NewAPIServer(svc)}

	fmt.Printf("cluster: %d machines in %d racks, %d slots\n",
		cl.NumMachines(), cl.NumRacks(), cl.TotalSlots())
	fmt.Printf("serving HTTP front door on %s (mode %s)\n", addr, mode)

	// Narrate health transitions (ok -> degraded -> ok on a sick disk that
	// heals, or -> failed under fail-stop) so an operator tailing the log
	// sees the durability state machine move, not just a flipped healthz.
	healthDone := make(chan struct{})
	defer close(healthDone)
	go func() {
		last := svc.Health()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-healthDone:
				return
			case <-tick.C:
			}
			h := svc.Health()
			if h.State != last.State {
				if h.Cause != "" {
					log.Printf("health: %s -> %s (%s)", last.State, h.State, h.Cause)
				} else {
					log.Printf("health: %s -> %s", last.State, h.State)
				}
				last = h
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("%v: shutting down", s)
		if err := svc.Close(); err != nil {
			log.Printf("service error: %v", err)
			defer os.Exit(1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

// waitReady polls the remote stats endpoint until the server answers —
// the network smoke starts server and driver concurrently.
func waitReady(cli *firmament.APIClient, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, err := cli.Stats()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runDriver is the closed loop: N submitters push jobs through the door, a
// collector completes every task the moment it is placed (batched through
// one request on the network path), and the run is judged on the delta of
// the door's stats.
func runDriver(d door, submitters, tasksPerJob int, duration time.Duration, perSub, templates bool) {
	st0, err := d.stats()
	if err != nil {
		log.Fatalf("stats: %v", err)
	}

	tracker := newJobTracker()
	events, cancelWatch, err := d.watch()
	if err != nil {
		log.Fatalf("watch: %v", err)
	}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		// Batch completions: on the network path one request completes a
		// whole burst of placements instead of one round trip per task.
		batch := make([]firmament.TaskID, 0, 256)
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			err := d.complete(batch)
			batch = batch[:0]
			return err == nil
		}
		for p := range events {
			if p.Kind == firmament.DecisionPlaced {
				batch = append(batch, p.Task)
				tracker.placed(p.Job, p.Task)
			}
			if len(batch) >= 256 || len(events) == 0 {
				if !flush() {
					return // service closed
				}
			}
		}
		flush()
	}()

	start := time.Now()
	deadline := start.Add(duration)
	jobsDone := make([]int, submitters) // per-submitter fully placed jobs
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				jobID, err := d.submit(firmament.Batch, 0, tasksPerJob)
				if err != nil {
					// On the network path this can also be a transport
					// failure or an unexpected 429 — say so instead of
					// quietly thinning the offered load.
					if !errors.Is(err, firmament.ErrServiceClosed) {
						log.Printf("submitter %d stopping: %v", i, err)
					}
					return
				}
				// Watchdog: a dropped publication (slow collector) would
				// otherwise hang the closed loop forever.
				select {
				case <-tracker.register(jobID, tasksPerJob):
					jobsDone[i]++
				case <-time.After(time.Minute):
					if werr := d.watchErr(); werr != nil {
						log.Fatalf("job %d not fully placed after 1m: watch stream failed: %v",
							jobID, werr)
					}
					log.Fatalf("job %d not fully placed after 1m "+
						"(placement events dropped? see watch_dropped)", jobID)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st, err := d.stats()
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	cancelWatch()
	if err := d.close(); err != nil {
		log.Printf("service error: %v", err)
		defer os.Exit(1)
	}
	<-collectorDone

	// Counters are deltas over the run (a remote server may carry history);
	// the distribution summaries are cumulative server-side.
	placed := st.Placed - st0.Placed
	rounds := st.Rounds - st0.Rounds
	ms := func(s float64) string { return fmt.Sprintf("%.2fms", s*1000) }
	fmt.Printf("ran %.2fs: %d placements (%.0f tasks/sec), %d rounds (%.0f/sec)\n",
		elapsed.Seconds(), placed, float64(placed)/elapsed.Seconds(),
		rounds, float64(rounds)/elapsed.Seconds())
	fmt.Printf("events/round: batch mean %.1f max %.0f; backlog at round end mean %.1f\n",
		st.BatchSize.Mean, st.BatchSize.Max, st.QueueDepth.Mean)
	fmt.Printf("algorithm runtime: p50 %s p99 %s\n",
		ms(st.AlgorithmRuntime.P50), ms(st.AlgorithmRuntime.P99))
	fmt.Printf("placement latency: p50 %s p99 %s max %s\n",
		ms(st.PlacementLatency.P50), ms(st.PlacementLatency.P99), ms(st.PlacementLatency.Max))
	if n := st.Backlogged - st0.Backlogged; n > 0 {
		fmt.Printf("backpressure: %d submissions refused or delayed\n", n)
	}
	churn := (st.Migrated - st0.Migrated) + (st.Preempted - st0.Preempted) +
		(st.StaleCompletions - st0.StaleCompletions) + (st.StaleDecisions - st0.StaleDecisions)
	if churn > 0 {
		fmt.Printf("churn: %d migrated, %d preempted, %d stale completions, %d stale decisions\n",
			st.Migrated-st0.Migrated, st.Preempted-st0.Preempted,
			st.StaleCompletions-st0.StaleCompletions, st.StaleDecisions-st0.StaleDecisions)
	}
	if perSub {
		for i, n := range jobsDone {
			tasks := n * tasksPerJob
			fmt.Printf("  submitter %2d: %6d jobs %8d tasks (%.0f tasks/sec)\n",
				i, n, tasks, float64(tasks)/elapsed.Seconds())
		}
	}
	if templates {
		hits := st.TemplateHits - st0.TemplateHits
		misses := st.TemplateMisses - st0.TemplateMisses
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Printf("templates: %d hits, %d misses (%.0f%% hit rate), %d invalidations\n",
			hits, misses, rate*100,
			st.TemplateInvalidations-st0.TemplateInvalidations)
		// The closed loop completes every job before resubmitting the same
		// shape — the exact workload the cache exists for. Zero hits means
		// the fast path is broken, and the CI template smoke relies on this
		// exit code to notice.
		if submitters > 0 && hits == 0 {
			log.Printf("FAIL: -templates on, yet zero template hits in %.2fs", elapsed.Seconds())
			os.Exit(1)
		}
	}
	// A load driver that placed nothing despite having submitters is a
	// failure, not a quiet run — the CI smokes rely on this exit code.
	// (-submitters 0 remains a clean zero-run.)
	if submitters > 0 && placed == 0 {
		log.Printf("FAIL: zero placements in %.2fs", elapsed.Seconds())
		os.Exit(1)
	}
}
