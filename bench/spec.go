package main

import (
	"time"

	"firmament/internal/cluster"
	"firmament/internal/service"
)

// A spec is one workload: the cluster it runs on, the path requests take
// into the service, and the load offered. It carries only what defines the
// workload; every other setting of the program is left at the package
// default (core.DefaultConfig(), zero service.Config fields), so a later
// change to a default is measured rather than masked.
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	topo   cluster.Topology
	quincy bool // Quincy over a seeded block store instead of LoadSpread
	// prefill is the share of slots occupied during set-up by tasks that
	// never finish, so the graph the solver sees is a busy cluster's.
	prefill float64

	// production path: durable service.Open over delayfs, api.NewServer on
	// a loopback listener, api.Client on the driver side.
	production bool

	svc service.Config // Templates / MaxPendingFactor only

	// Closed loop (open == nil): each driver keeps jobs (default 4) jobs in
	// flight and completes every task the moment it is observed placed.
	// Sizes are uniform in [sizeLo, sizeHi], or — when shapes is set — drawn
	// from those few fixed shapes, which is the recurring workload the
	// template cache serves.
	sizeLo, sizeHi int
	shapes         []int
	jobs           int

	open *openSpec
}

// closed reports whether the workload has closed-loop drivers. A workload
// may have both those and an open-loop schedule.
func (sp *spec) closed() bool { return sp.sizeHi > 0 || len(sp.shapes) > 0 }

// inFlight is how many jobs each closed-loop driver keeps outstanding.
func (sp *spec) inFlight() int {
	if sp.jobs > 0 {
		return sp.jobs
	}
	return 4
}

// An openSpec describes an open-loop arrival schedule: jobs are due at
// seeded times whether or not earlier ones were placed, and each task runs
// for its own duration once placed.
type openSpec struct {
	// phases repeat for the whole run; every phase is a whole number of
	// seconds, and every second of a phase offers exactly jobsPerSec jobs at
	// seeded uniform offsets (a Poisson process conditioned on its
	// per-second count: bursty inside a round, but every run of a workload
	// offers the same amount of work, so seeds differ in shape, not size).
	// Job sizes and classes are stratified per second for the same reason.
	phases []phase

	tasksLo, tasksHi int
	classes          []classMix
	inputs           bool // tasks read seeded files from the block store

	// churnEvery > 0 removes a seeded machine at that period and restores
	// it churnDown later.
	churnEvery, churnDown time.Duration

	// retryRefused keeps a job refused with ErrBacklogged in the
	// generator's FIFO and offers it again every millisecond.
	retryRefused bool
}

type phase struct {
	seconds    int
	jobsPerSec int
}

// classMix is one job class of an open-loop workload: share of jobs, the
// class and priority they are submitted with, and the task duration range.
type classMix struct {
	share        float64
	class        cluster.JobClass
	priority     int
	durLo, durHi time.Duration
}

var topo64 = cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32}

// workloads is the benchmark's fixed set. BENCHMARK.json repeats the names
// and reasons; bench_test.go checks the two agree.
var workloads = []spec{
	{
		name:   "inproc-64",
		why:    "closed loop into service.New, volatile: the service round loop, cluster tables and core update/extract/apply do the work; api, wal and template are idle",
		topo:   topo64,
		sizeLo: 16, sizeHi: 48,
	},
	{
		name:       "full-64",
		why:        "same job stream over api.Client/NDJSON watch into service.Open with a WAL on delayfs (200us per fsync): api and wal add nearly all the extra work",
		topo:       topo64,
		production: true,
		sizeLo:     16, sizeHi: 48,
	},
	{
		name:   "template-64",
		why:    "closed loop with Templates on, one job per driver drawn from four recurring shapes: hits bypass the solver, so template and admission work, mcmf almost none",
		topo:   topo64,
		svc:    service.Config{Templates: true},
		shapes: []int{16, 32, 64, 128},
		// One job in flight per driver, not four. A template hit needs the
		// cluster's occupancy profile to recur as well as the job's shape,
		// and with several jobs of each driver outstanding the profiles
		// multiply: four in flight hit 50-70 % of the time and every round
		// still solves, which makes this inproc-64 again. With one, every
		// admission after the first few is a hit.
		jobs: 1,
	},
	{
		name:    "scale-1k",
		why:     "open loop, 1000 machines at 70% prefill, Quincy arcs over a block store: rounds cost tens of ms in core update, flow clone and the mcmf solve",
		topo:    cluster.Topology{Racks: 25, MachinesPerRack: 40, SlotsPerMachine: 12},
		quincy:  true,
		prefill: 0.70,
		open: &openSpec{
			// Sized once on the reference host (2 vCPU) and frozen. At 30
			// jobs/s the backlog grows without bound; the issue's 20 is
			// sustained, but p50 then differs by 15 % between seeds and by 20 %
			// between the windows of one run; so capacity lies between the
			// two, and 10 jobs/s is the 40-50 % of it the issue allows. See
			// README, "Load sizes".
			phases:  []phase{{seconds: 1, jobsPerSec: 10}},
			tasksLo: 50, tasksHi: 150,
			classes: []classMix{{share: 1, class: cluster.Batch, durLo: 500 * time.Millisecond, durHi: 1500 * time.Millisecond}},
			inputs:  true,
		},
	},
	{
		name: "churn-64",
		why:  "inproc-64's closed loop plus what disturbs it: open-loop jobs of tasks that run 0.1-4 s, a machine removed every 250 ms, an admission ceiling that refuses: evictions, re-placements, retries",
		topo: topo64,
		// Not the issue's open loop at 50 %/130 % of capacity; see README,
		// "Load sizes", for the two things that ruled it out. In short:
		// under sustained overload p50 and p99 measure the queue for slots
		// and varied 2-6x between runs of one commit; and without overload
		// an open loop of a few dozen jobs a second leaves this host's CPUs
		// idle between jobs, where every goroutine hand-off costs a vCPU
		// wake-up and p50 settles on 2.2 ms or 3.8 ms per process. So the
		// disturbances run on top of inproc-64's closed loop, which keeps
		// the round loop busy: an open-loop schedule of jobs whose tasks
		// occupy slots for seconds (about 200 at a time: LoadSpread's
		// default costs stop at 10 tasks a machine, so 680 of the 2048 slots
		// are usable and the closed loop needs up to 256 of them), the
		// machine churn, and an admission ceiling of 266 pending tasks
		// (factor 0.13, not the issue's 1, which nothing here approaches)
		// that refuses a few per cent of the submits.
		svc:    service.Config{MaxPendingFactor: 0.13},
		sizeLo: 16, sizeHi: 48,
		open: &openSpec{
			phases:  []phase{{seconds: 1, jobsPerSec: 23}, {seconds: 2, jobsPerSec: 9}},
			tasksLo: 8, tasksHi: 24,
			classes: []classMix{
				{share: 0.2, class: cluster.Service, priority: 10, durLo: 2 * time.Second, durHi: 4 * time.Second},
				{share: 0.8, class: cluster.Batch, priority: 0, durLo: 100 * time.Millisecond, durHi: 500 * time.Millisecond},
			},
			churnEvery:   250 * time.Millisecond,
			churnDown:    500 * time.Millisecond,
			retryRefused: true,
		},
	},
}

func findSpec(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
