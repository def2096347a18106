package api

import (
	"fmt"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/metrics"
	"firmament/internal/service"
)

// TaskSpec is the wire form of cluster.TaskSpec; durations travel as
// nanoseconds.
type TaskSpec struct {
	DurationNs int64 `json:"duration_ns,omitempty"`
	InputFile  int64 `json:"input_file,omitempty"`
	InputSize  int64 `json:"input_size,omitempty"`
	NetDemand  int64 `json:"net_demand,omitempty"`
}

func specToWire(s cluster.TaskSpec) TaskSpec {
	return TaskSpec{
		DurationNs: int64(s.Duration),
		InputFile:  s.InputFile,
		InputSize:  s.InputSize,
		NetDemand:  s.NetDemand,
	}
}

func (s TaskSpec) toCluster() cluster.TaskSpec {
	return cluster.TaskSpec{
		Duration:  time.Duration(s.DurationNs),
		InputFile: s.InputFile,
		InputSize: s.InputSize,
		NetDemand: s.NetDemand,
	}
}

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Class is "batch" (the default when empty) or "service".
	Class    string     `json:"class,omitempty"`
	Priority int        `json:"priority,omitempty"`
	Tasks    []TaskSpec `json:"tasks"`
}

// SubmitResponse returns the IDs the cluster allocated: placement happens
// asynchronously (stream /v1/watch for it).
type SubmitResponse struct {
	Job   cluster.JobID    `json:"job"`
	Tasks []cluster.TaskID `json:"tasks"`
}

// CompleteRequest is the body of the batched POST /v1/tasks/complete.
type CompleteRequest struct {
	Tasks []cluster.TaskID `json:"tasks"`
}

// classToWire renders a job class for the wire.
func classToWire(c cluster.JobClass) string { return c.String() }

// parseClass parses a wire job class; empty means batch.
func parseClass(s string) (cluster.JobClass, error) {
	switch s {
	case "", "batch":
		return cluster.Batch, nil
	case "service":
		return cluster.Service, nil
	default:
		return 0, fmt.Errorf("unknown job class %q (want \"batch\" or \"service\")", s)
	}
}

// Placement is the wire form of one streamed scheduling decision.
type Placement struct {
	Task    cluster.TaskID    `json:"task"`
	Job     cluster.JobID     `json:"job"`
	Kind    string            `json:"kind"` // placed | migrated | preempted
	Machine cluster.MachineID `json:"machine"`
	Round   uint64            `json:"round"`
	// LatencyNs is submission → placement for placed decisions.
	LatencyNs int64 `json:"latency_ns,omitempty"`
}

func placementToWire(p service.Placement) Placement {
	return Placement{
		Task:      p.Task,
		Job:       p.Job,
		Kind:      p.Kind.String(),
		Machine:   p.Machine,
		Round:     p.Round,
		LatencyNs: int64(p.Latency),
	}
}

func (p Placement) toService() (service.Placement, error) {
	var kind core.DecisionKind
	switch p.Kind {
	case "placed":
		kind = core.DecisionPlaced
	case "migrated":
		kind = core.DecisionMigrated
	case "preempted":
		kind = core.DecisionPreempted
	default:
		return service.Placement{}, fmt.Errorf("unknown decision kind %q", p.Kind)
	}
	return service.Placement{
		Task:    p.Task,
		Job:     p.Job,
		Kind:    kind,
		Machine: p.Machine,
		Round:   p.Round,
		Latency: time.Duration(p.LatencyNs),
	}, nil
}

// DistSummary is the wire summary of a sample distribution; values carry
// the distribution's native unit (seconds for the timing distributions).
type DistSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func summarize(d *metrics.Dist) DistSummary {
	return DistSummary{
		N:    d.N(),
		Mean: d.Mean(),
		P50:  d.Percentile(50),
		P99:  d.Percentile(99),
		Max:  d.Max(),
	}
}

// HealthResponse is the body of GET /v1/healthz: HTTP 200 when the status
// is "ok", 503 when "degraded" or "failed" — the body says why either way,
// so a load balancer can drop the member while an operator reads the cause.
type HealthResponse struct {
	Status string `json:"status"` // ok | degraded | failed
	Cause  string `json:"cause,omitempty"`
}

func healthToWire(h service.Health) HealthResponse {
	return HealthResponse{Status: h.State.String(), Cause: h.Cause}
}

// Stats is the wire form of service.Stats, with the sample distributions
// reduced to summaries. solver_warm_starts counts rounds whose cost scaling
// run completed warm and solver_full_restarts rounds whose run fell back to
// a from-scratch solve; a round relaxation won counts as neither, so
// solver_warm_starts / rounds is about one minus relaxation's win share,
// not a cold-restart rate.
type Stats struct {
	Rounds             int64 `json:"rounds"`
	Submitted          int64 `json:"submitted"`
	Backlogged         int64 `json:"backlogged"`
	Placed             int64 `json:"placed"`
	Migrated           int64 `json:"migrated"`
	Preempted          int64 `json:"preempted"`
	Completed          int64 `json:"completed"`
	StaleCompletions   int64 `json:"stale_completions"`
	StaleMachineOps    int64 `json:"stale_machine_ops"`
	StaleDecisions     int64 `json:"stale_decisions"`
	Unscheduled        int64 `json:"unscheduled"`
	WatchDropped       int64 `json:"watch_dropped"`
	SolverWarmStarts   int64 `json:"solver_warm_starts"`
	SolverFullRestarts int64 `json:"solver_full_restarts"`
	// Template fast-path counters (zero unless the service runs with
	// ServiceConfig.Templates on): jobs placed straight from the placement
	// template cache, jobs that fell through to the solver, and cached
	// templates dropped on machine churn.
	TemplateHits          int64 `json:"template_hits"`
	TemplateMisses        int64 `json:"template_misses"`
	TemplateInvalidations int64 `json:"template_invalidations"`
	// Disk-fault tolerance counters and health (docs/durability.md, fault
	// model): transient errors retried away, rounds run with durability
	// off, successful re-arms, and the current health state plus captured
	// cause ("" while ok).
	WALRetries     int64  `json:"wal_retries"`
	DegradedRounds int64  `json:"degraded_rounds"`
	WALRearms      int64  `json:"wal_rearms"`
	Health         string `json:"health"`
	FailureCause   string `json:"failure_cause,omitempty"`
	Pending        int64  `json:"pending"`
	Running        int64  `json:"running"`

	QueueDepth       DistSummary `json:"queue_depth"`
	BatchSize        DistSummary `json:"batch_size"`
	AlgorithmRuntime DistSummary `json:"algorithm_runtime"`
	RoundTime        DistSummary `json:"round_time"`
	PlacementLatency DistSummary `json:"placement_latency"`
}

// StatsFromService reduces a service snapshot to its wire form. The load
// driver uses it for local runs too, so local and remote reports share one
// shape.
func StatsFromService(st service.Stats) Stats {
	return Stats{
		Rounds:                st.Rounds,
		Submitted:             st.Submitted,
		Backlogged:            st.Backlogged,
		Placed:                st.Placed,
		Migrated:              st.Migrated,
		Preempted:             st.Preempted,
		Completed:             st.Completed,
		StaleCompletions:      st.StaleCompletions,
		StaleMachineOps:       st.StaleMachineOps,
		StaleDecisions:        st.StaleDecisions,
		Unscheduled:           st.Unscheduled,
		WatchDropped:          st.WatchDropped,
		SolverWarmStarts:      st.SolverWarmStarts,
		SolverFullRestarts:    st.SolverFullRestarts,
		TemplateHits:          st.TemplateHits,
		TemplateMisses:        st.TemplateMisses,
		TemplateInvalidations: st.TemplateInvalidations,
		WALRetries:            st.WALRetries,
		DegradedRounds:        st.DegradedRounds,
		WALRearms:             st.WALRearms,
		Health:                st.Health,
		FailureCause:          st.FailureCause,
		Pending:               st.Pending,
		Running:               st.Running,
		QueueDepth:            summarize(st.QueueDepth),
		BatchSize:             summarize(st.BatchSize),
		AlgorithmRuntime:      summarize(st.AlgorithmRuntime),
		RoundTime:             summarize(st.RoundTime),
		PlacementLatency:      summarize(st.PlacementLatency),
	}
}
