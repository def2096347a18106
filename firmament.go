// Package firmament is a from-scratch Go implementation of Firmament, the
// fast, centralized, flow-based cluster scheduler of Gog et al. (OSDI 2016).
//
// Firmament models cluster scheduling as a min-cost max-flow (MCMF)
// optimization over a flow network shaped by a pluggable scheduling policy,
// and continuously reschedules the entire workload. It reaches sub-second
// placement latencies on clusters of thousands of machines by running two
// MCMF algorithms speculatively in parallel — relaxation, which is fastest
// in the common case, and incremental cost scaling, which bounds the edge
// cases — together with problem-specific heuristics (arc prioritization,
// efficient task removal, price refine on algorithm switch).
//
// # Quickstart
//
//	cl := firmament.NewCluster(firmament.Topology{
//		Racks: 2, MachinesPerRack: 8, SlotsPerMachine: 4,
//	})
//	sched := firmament.NewScheduler(cl, firmament.NewLoadSpreadPolicy(cl),
//		firmament.DefaultConfig())
//	cl.SubmitJob(firmament.Batch, 0, 0, make([]firmament.TaskSpec, 16))
//	stats, applied, err := sched.RunOnce(0)
//
// The subsystems compose à la carte: cluster state (NewCluster), an
// HDFS-like block store for data locality (NewStore), a max-min fair
// network fabric (NewFabric), scheduling policies (NewQuincyPolicy,
// NewLoadSpreadPolicy, NewNetworkAwarePolicy), a Google-trace-shaped
// workload generator (GenerateTrace), baseline schedulers (NewSparrow and
// friends), and a Fauxmaster-style discrete-event simulator (Simulate).
//
// # Serving
//
// Beyond one-shot RunOnce calls, NewService starts a long-running,
// concurrency-safe scheduling service — the continuously running deployment
// of paper Fig. 2b. Many goroutines Submit jobs, report completions, and
// add or remove machines through the front door: a submission takes the
// cluster's table lock once and lands in its event journal, and
// completions and machine changes queue on one ingestion queue the round
// start drains with one buffer swap. Events accumulate while a solver round
// is in flight and drain as one batch at the next round (the paper's
// event-coalescing behavior), so bursty traffic costs one incremental graph
// update per round — and the solve runs on the scheduler's own graph under
// no cluster lock, so a long solve never blocks a submitter. With
// ServiceConfig.MaxPendingFactor set, the front door applies backpressure
// once pending tasks exceed that multiple of cluster slots: Submit returns
// ErrBacklogged and SubmitWait blocks until the scheduler catches up. A
// dedicated scheduling loop paces rounds (ServiceConfig.RoundInterval),
// publishes every enacted decision to Watch subscribers, and reports queue
// depth, batch size, algorithm runtime and placement latency percentiles
// through Service.Stats:
//
//	cl := firmament.NewCluster(firmament.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32})
//	svc := firmament.NewService(cl, firmament.NewLoadSpreadPolicy(cl),
//		firmament.DefaultConfig(), firmament.ServiceConfig{})
//	events, cancel := svc.Watch()
//	job, _ := svc.Submit(firmament.Batch, 0, make([]firmament.TaskSpec, 16))
//	for placed := 0; placed < len(job.Tasks); {
//		p := <-events
//		if p.Kind == firmament.DecisionPlaced {
//			svc.Complete(p.Task) // closed loop: finish as soon as placed
//			placed++
//		}
//	}
//	cancel()
//	svc.Close()
//
// The same front door is reachable over the network: ListenAndServe puts a
// service behind an HTTP/JSON API (submit, complete, machine ops, stats,
// and an NDJSON placement stream), and Dial returns a client that drives
// it remotely with identical error semantics — backpressure surfaces as
// HTTP 429 mapped back to ErrBacklogged, shutdown as 503 mapped to
// ErrServiceClosed. See internal/api for the wire protocol.
//
// cmd/firmament-serve is a closed-loop load driver over this API: it
// hammers a service from N concurrent submitters and reports sustained
// placements/sec with latency percentiles. With -listen it serves the
// network front door instead; with -remote it drives one, turning the
// driver into a network load generator.
package firmament

import (
	"time"

	"firmament/internal/api"
	"firmament/internal/baselines"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/netsim"
	"firmament/internal/policy"
	"firmament/internal/service"
	"firmament/internal/sim"
	"firmament/internal/storage"
	"firmament/internal/trace"
	"firmament/internal/wal"
)

// Cluster state substrate (paper §2).
type (
	// Cluster is the authoritative cluster state: machines, racks, jobs,
	// tasks, and the task lifecycle of paper Figure 1.
	Cluster = cluster.Cluster
	// Topology describes the cluster shape.
	Topology = cluster.Topology
	// TaskSpec describes one task at job submission.
	TaskSpec = cluster.TaskSpec
	// Task is one schedulable unit.
	Task = cluster.Task
	// Machine is one schedulable host.
	Machine = cluster.Machine
	// MachineID identifies a machine.
	MachineID = cluster.MachineID
	// TaskID identifies a task.
	TaskID = cluster.TaskID
	// JobID identifies a job.
	JobID = cluster.JobID
	// JobClass distinguishes batch from service jobs.
	JobClass = cluster.JobClass
)

// Job classes.
const (
	Batch   = cluster.Batch
	Service = cluster.Service
)

// NewCluster builds a cluster with the given topology, all machines
// healthy and empty.
func NewCluster(topo Topology) *Cluster { return cluster.New(topo) }

// Scheduler core (paper §3, §6).
type (
	// Scheduler is the Firmament scheduler engine.
	Scheduler = core.Scheduler
	// Config configures the scheduler.
	Config = core.Config
	// SolverMode selects the MCMF algorithm configuration.
	SolverMode = core.SolverMode
	// Round is one scheduling computation awaiting application.
	Round = core.Round
	// RoundStats quantifies one scheduling round.
	RoundStats = core.RoundStats
	// ApplyStats counts applied decisions.
	ApplyStats = core.ApplyStats
)

// Solver modes (paper §6.1, §7.1).
const (
	// ModeFirmament races relaxation against incremental cost scaling.
	ModeFirmament = core.ModeFirmament
	// ModeRelaxationOnly runs only relaxation.
	ModeRelaxationOnly = core.ModeRelaxationOnly
	// ModeIncrementalCostScaling runs only incremental cost scaling.
	ModeIncrementalCostScaling = core.ModeIncrementalCostScaling
	// ModeQuincy runs from-scratch cost scaling, the Quincy baseline.
	ModeQuincy = core.ModeQuincy
)

// DefaultConfig is Firmament's production configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewScheduler builds a scheduler over cl with the given policy.
func NewScheduler(cl *Cluster, model CostModel, cfg Config) *Scheduler {
	return core.NewScheduler(cl, model, cfg)
}

// Scheduling policies (paper §3.3).
type (
	// CostModel is the scheduling-policy API.
	CostModel = policy.CostModel
	// QuincyPolicy is the locality-oriented policy of Fig. 6b.
	QuincyPolicy = policy.Quincy
	// LoadSpreadPolicy is the load-spreading policy of Fig. 6a.
	LoadSpreadPolicy = policy.LoadSpread
	// NetworkAwarePolicy is the bandwidth-aware policy of Fig. 6c.
	NetworkAwarePolicy = policy.NetworkAware
)

// NewLoadSpreadPolicy returns the load-spreading policy (paper Fig. 6a).
func NewLoadSpreadPolicy(cl *Cluster) *LoadSpreadPolicy { return policy.NewLoadSpread(cl) }

// NewQuincyPolicy returns the Quincy locality policy (paper Fig. 6b).
func NewQuincyPolicy(cl *Cluster, store *Store) *QuincyPolicy { return policy.NewQuincy(cl, store) }

// NewNetworkAwarePolicy returns the network-aware policy (paper Fig. 6c).
// oracle may be a *Fabric or nil.
func NewNetworkAwarePolicy(cl *Cluster, oracle policy.BandwidthOracle) *NetworkAwarePolicy {
	return policy.NewNetworkAware(cl, oracle)
}

// Storage substrate (data locality, paper §7.2).
type (
	// Store is the HDFS-like replicated block store.
	Store = storage.Store
	// StoreConfig configures a Store.
	StoreConfig = storage.Config
)

// NewStore builds a block store over the cluster's machines.
func NewStore(cl *Cluster, cfg StoreConfig) *Store { return storage.NewStore(cl, cfg) }

// Network substrate (testbed experiments, paper §7.5).
type (
	// Fabric is the max-min fair NIC-constrained network model.
	Fabric = netsim.Fabric
)

// NewFabric builds a fabric with one NIC per cluster machine.
func NewFabric(cl *Cluster) *Fabric { return netsim.NewFabric(cl) }

// Workload generation (paper §7.1).
type (
	// Workload is a generated trace.
	Workload = trace.Workload
	// JobTrace is one job submission in a workload.
	JobTrace = trace.JobTrace
	// TaskTrace is one task of a traced job.
	TaskTrace = trace.TaskTrace
	// TraceConfig parameterizes workload generation.
	TraceConfig = trace.Config
)

// GenerateTrace produces a Google-trace-shaped synthetic workload.
func GenerateTrace(cfg TraceConfig) *Workload { return trace.Generate(cfg) }

// UniformWorkload builds the regular workload of the breaking-point
// experiment (paper Fig. 17).
func UniformWorkload(tasksPerJob int, duration, interarrival, horizon time.Duration) *Workload {
	return trace.Uniform(tasksPerJob, duration, interarrival, horizon)
}

// Baseline schedulers (paper §7.5).
type (
	// QueueScheduler is a task-by-task baseline scheduler.
	QueueScheduler = baselines.QueueScheduler
)

// NewSparrow returns a Sparrow-like distributed sampler.
func NewSparrow(cl *Cluster, seed int64) QueueScheduler { return baselines.NewSparrow(cl, seed) }

// NewSwarmKit returns a Docker SwarmKit-like spreader.
func NewSwarmKit(cl *Cluster) QueueScheduler { return baselines.NewSwarmKit(cl) }

// NewKubernetes returns a kube-scheduler-like filter-and-score scheduler.
func NewKubernetes(cl *Cluster) QueueScheduler { return baselines.NewKubernetes(cl) }

// NewMesos returns a Mesos-like offer-based scheduler.
func NewMesos(cl *Cluster, seed int64) QueueScheduler { return baselines.NewMesos(cl, seed) }

// Simulation (paper §7.1).
type (
	// SimConfig configures a simulation run.
	SimConfig = sim.Config
	// SimEnv is the substrate handed to scheduler constructors.
	SimEnv = sim.Env
	// SimResults aggregates a run.
	SimResults = sim.Results
	// BackgroundFlow is persistent network traffic present for a whole
	// simulation (the paper's iperf/nginx background jobs, §7.5).
	BackgroundFlow = sim.BackgroundFlow
	// NetClass is a network service class; lower classes have strict
	// priority.
	NetClass = netsim.Class
)

// Network service classes.
const (
	NetClassHigh   = netsim.ClassHigh
	NetClassNormal = netsim.ClassNormal
)

// Simulate runs a trace-driven simulation to completion.
func Simulate(cfg SimConfig) (*SimResults, error) { return sim.Run(cfg) }

// Serving layer (long-running deployment, paper Fig. 2b).
type (
	// SchedulerService is the long-running concurrent scheduling service
	// (the name Service is taken by the job class).
	SchedulerService = service.Service
	// ServiceConfig configures round pacing, backpressure and the
	// placement-template fast path.
	ServiceConfig = service.Config
	// Placement is one published scheduling decision.
	Placement = service.Placement
	// ServiceStats is a snapshot of the service's counters and
	// distributions. Its scalar fields are declared once, in the embedded
	// service.Counters; the loop-written ones are those of the last
	// finished round.
	ServiceStats = service.Stats
	// Decision is one enacted action of a scheduling round.
	Decision = core.Decision
	// DecisionKind classifies an enacted action.
	DecisionKind = core.DecisionKind
)

// Decision kinds.
const (
	DecisionPlaced    = core.DecisionPlaced
	DecisionMigrated  = core.DecisionMigrated
	DecisionPreempted = core.DecisionPreempted
)

// Serving-layer front-door errors.
var (
	// ErrBacklogged is returned by SchedulerService.Submit when the
	// pending backlog exceeds ServiceConfig.MaxPendingFactor × slots.
	ErrBacklogged = service.ErrBacklogged
	// ErrServiceClosed is returned by front-door methods after Close.
	ErrServiceClosed = service.ErrClosed
)

// NewService builds a scheduling service over cl with the given policy and
// solver configuration and starts its scheduling loop. Submit, Complete,
// RemoveMachine and RestoreMachine are safe from any goroutine; Watch
// subscribes to placement decisions; Close stops the loop.
func NewService(cl *Cluster, model CostModel, cfg Config, scfg ServiceConfig) *SchedulerService {
	return service.New(cl, model, cfg, scfg)
}

// Durability: the write-ahead event journal with snapshot/restore (see
// docs/durability.md). OpenService builds a crash-recoverable service;
// ReplayJournal rebuilds state from a recorded journal for inspection.
type (
	// ServiceOptions configures OpenService: topology, policy constructor,
	// solver and serving configuration, and the journal itself.
	ServiceOptions = service.Options
	// DurabilityConfig configures the journal directory, fsync policy and
	// snapshot cadence.
	DurabilityConfig = service.DurabilityConfig
	// RestoreInfo reports what OpenService recovered.
	RestoreInfo = service.RestoreInfo
	// SyncPolicy selects when journal appends reach stable storage.
	SyncPolicy = wal.SyncPolicy
	// WALFailurePolicy selects how the service responds to a permanent WAL
	// failure (DurabilityConfig.OnWALFailure): fail-stop or degrade.
	WALFailurePolicy = service.WALFailurePolicy
	// ServiceHealth is a point-in-time health report: ok, degraded, or
	// failed, plus the captured cause.
	ServiceHealth = service.Health
	// HealthState is the coarse health state in a ServiceHealth.
	HealthState = service.HealthState
)

// WAL failure policies (DurabilityConfig.OnWALFailure).
const (
	// WALFailStop stops the service cleanly on a permanent WAL failure.
	WALFailStop = service.WALFailStop
	// WALDegrade keeps scheduling volatile and probes the disk, re-arming
	// durability once it heals.
	WALDegrade = service.WALDegrade
)

// Health states reported by SchedulerService.Health.
const (
	HealthOK       = service.HealthOK
	HealthDegraded = service.HealthDegraded
	HealthFailed   = service.HealthFailed
)

// ParseWALFailurePolicy maps the CLI spelling ("fail-stop", "degrade") to a
// WALFailurePolicy.
func ParseWALFailurePolicy(s string) (WALFailurePolicy, error) {
	return service.ParseWALFailurePolicy(s)
}

// Journal fsync policies. All of them flush acknowledged records to the OS,
// so a killed process loses nothing acknowledged; they differ in exposure
// to power loss.
const (
	// SyncAlways fsyncs (group-committed) before every acknowledgement.
	SyncAlways = wal.SyncAlways
	// SyncBatch fsyncs every 50ms from the journal log's own pacer.
	SyncBatch = wal.SyncBatch
	// SyncNone leaves fsync to the OS (and snapshot/close barriers).
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy maps the CLI spelling ("always", "batch", "none") to a
// SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// OpenService builds a durable scheduling service over the journal
// directory in opts.Durability.Dir: it restores the latest snapshot if one
// exists, replays the write-ahead log tail to re-enact everything
// acknowledged after it, and starts the scheduling loop warm — the restored
// flow network carries the previous run's flow and potentials, so the first
// post-restore round solves incrementally instead of from scratch. Close
// cuts a final snapshot.
func OpenService(opts ServiceOptions) (*SchedulerService, *RestoreInfo, error) {
	return service.Open(opts)
}

// ReplayJournal rebuilds a service from a recorded journal directory and
// detaches it: the returned service runs in memory over the recovered state
// and journals nothing further. A recorded journal is thereby a reproducible
// scenario — restore it, inspect stats, keep driving load.
func ReplayJournal(opts ServiceOptions) (*SchedulerService, *RestoreInfo, error) {
	return service.Replay(opts)
}

// Network front door (internal/api): the HTTP/JSON service API remote
// submitters and machine agents drive, plus the Go client for it. This is
// how a cluster manager integrates Firmament as its scheduler over the
// network rather than in-process.
type (
	// APIServer is the HTTP/JSON front door over a scheduling service; it
	// implements http.Handler.
	APIServer = api.Server
	// APIClient drives a remote front door with the same
	// submit/complete/machine-ops/stats surface as SchedulerService.
	APIClient = api.Client
	// RemoteJob is the client's view of a submitted job: the allocated IDs.
	RemoteJob = api.Job
	// APIStats is the wire form of ServiceStats: the same embedded
	// counters, with the sample distributions reduced to summaries.
	APIStats = api.Stats
	// APIWatchStream is a live remote placement subscription; after its C
	// closes, Err distinguishes clean close from transport failure.
	APIWatchStream = api.WatchStream
	// APIHealthResponse is the wire form of GET /v1/healthz: the health
	// state plus the captured cause.
	APIHealthResponse = api.HealthResponse
)

// NewAPIServer builds the HTTP front door over svc. Wrap it in an
// http.Server (or call its ListenAndServe) to put the scheduler on the
// network.
func NewAPIServer(svc *SchedulerService) *APIServer { return api.NewServer(svc) }

// ListenAndServe serves svc's front door on addr, blocking until the
// listener fails. For graceful shutdown, use NewAPIServer with your own
// http.Server.
func ListenAndServe(addr string, svc *SchedulerService) error {
	return api.NewServer(svc).ListenAndServe(addr)
}

// Dial connects to a remote front door at base (e.g.
// "http://10.0.0.1:9090"). Remote Submit fails with ErrBacklogged on HTTP
// 429 and ErrServiceClosed on 503, exactly like the in-process calls.
func Dial(base string) *APIClient { return api.Dial(base) }

// APIStatsFromService reduces a local service snapshot to the wire shape,
// so local and remote tooling share one report format.
func APIStatsFromService(st ServiceStats) APIStats { return api.StatsFromService(st) }
