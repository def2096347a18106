package api

import (
	"errors"
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

// toCluster converts a wire task spec, rejecting a negative duration, input
// size or network demand. InputFile stays signed: negative means no input.
func (s TaskSpec) toCluster() (cluster.TaskSpec, error) {
	if s.DurationNs < 0 || s.InputSize < 0 || s.NetDemand < 0 {
		return cluster.TaskSpec{}, errors.New("duration_ns, input_size and net_demand must not be negative")
	}
	return cluster.TaskSpec{
		Duration:  time.Duration(s.DurationNs),
		InputFile: s.InputFile,
		InputSize: s.InputSize,
		NetDemand: s.NetDemand,
	}, nil
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

// Stats is the wire form of service.Stats: the counters, health and gauges
// travel as service.Counters, whose JSON tags are the wire spelling, and the
// sample distributions are reduced to summaries.
type Stats struct {
	service.Counters

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
		Counters:         st.Counters,
		QueueDepth:       summarize(st.QueueDepth),
		BatchSize:        summarize(st.BatchSize),
		AlgorithmRuntime: summarize(st.AlgorithmRuntime),
		RoundTime:        summarize(st.RoundTime),
		PlacementLatency: summarize(st.PlacementLatency),
	}
}
