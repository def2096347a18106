package policy

import (
	"time"

	"firmament/internal/cluster"
)

// LoadSpread is the trivial load-spreading policy of paper Fig. 6a: every
// task points at a single cluster-wide aggregator X, and X's per-machine
// arc costs are proportional to the number of tasks already running there,
// so machines fill up evenly (as in Docker SwarmKit).
//
// The paper uses this policy to expose the relaxation algorithm's edge
// case: under-populated machines become contended destinations, and
// relaxation's runtime grows linearly with the size of an arriving job
// (Figure 9) while cost scaling's stays flat.
type LoadSpread struct {
	cl *cluster.Cluster

	// CostPerTask is the per-running-task cost increment on an X→machine
	// arc (default 100).
	CostPerTask Cost
	// BaseUnscheduled is the cost of leaving a task unscheduled before
	// wait-time growth (default 1000).
	BaseUnscheduled Cost
	// PreemptionPenalty prices evicting a running task (default 800).
	PreemptionPenalty Cost
}

// NewLoadSpread returns the load-spreading policy over cl.
func NewLoadSpread(cl *cluster.Cluster) *LoadSpread {
	return &LoadSpread{
		cl:          cl,
		CostPerTask: 100,
		// The preemption penalty exceeds BaseUnscheduled + MaxWaitCost +
		// the costliest placement, so waiting batch work never evicts
		// running batch work.
		BaseUnscheduled:   1000,
		PreemptionPenalty: 8000,
	}
}

// Name implements CostModel.
func (p *LoadSpread) Name() string { return "load-spreading" }

// BeginRound implements CostModel. Load counts are read live from the
// cluster, so there is nothing to precompute.
func (p *LoadSpread) BeginRound(now time.Duration) {}

// UnscheduledCost implements CostModel.
func (p *LoadSpread) UnscheduledCost(t *cluster.Task, now time.Duration) Cost {
	if t.State == cluster.TaskRunning {
		return p.PreemptionPenalty
	}
	return p.BaseUnscheduled + WaitCost(now-t.SubmitTime)
}

// TaskArcs implements CostModel: pending tasks connect to X; running tasks
// connect to their current machine at zero cost (continuing is free).
func (p *LoadSpread) TaskArcs(dst []TaskArc, t *cluster.Task, now time.Duration) []TaskArc {
	if t.State == cluster.TaskRunning {
		return append(dst, TaskArc{Target: ToMachine(t.Machine), Cost: 0, Capacity: 1})
	}
	return append(dst, TaskArc{Target: ToAgg(ClusterAgg), Cost: 0, Capacity: 1})
}

// Aggregators implements CostModel.
func (p *LoadSpread) Aggregators(dst []AggID) []AggID { return append(dst, ClusterAgg) }

// AggArcs implements CostModel: X has one unit-capacity arc per free slot
// of every healthy machine, priced by the occupancy level that slot would
// create — the k-th additional task on a machine costs
// (running+k)·CostPerTask, so machines fill evenly (paper Fig. 6a: "the
// number of tasks on a machine only increases once all other machines have
// at least as many tasks"). The graduated unit arcs also make
// under-populated machines contended destinations, the property that slows
// relaxation down (paper §4.3, Figure 9).
func (p *LoadSpread) AggArcs(dst []MachineArc, id AggID, now time.Duration) []MachineArc {
	if id != ClusterAgg {
		return dst
	}
	out := dst
	p.cl.Machines(func(m *cluster.Machine) {
		if !m.Healthy() {
			return
		}
		for level := m.Running(); level < m.Slots; level++ {
			out = append(out, MachineArc{
				Machine:  m.ID,
				Key:      int64(level),
				Cost:     Cost(level) * p.CostPerTask,
				Capacity: 1,
			})
		}
	})
	return out
}

// TemplateSignature opts LoadSpread into placement-template caching
// (internal/template). The policy qualifies for the template equivalence
// contract because its arc costs are pure functions of machine occupancy
// levels: any two cluster states with equal healthy-machine (running,
// slots) multisets have equal placement optima, and greedy lowest-level
// slot selection IS the joint optimum (the slot costs form a uniform
// matroid). The signature folds every cost parameter, so retuning the
// policy orphans all previously recorded templates.
func (p *LoadSpread) TemplateSignature() uint64 {
	h := uint64(fnvSeed)
	for _, s := range p.Name() {
		h = (h ^ uint64(s)) * fnvStep
	}
	for _, v := range [...]Cost{p.CostPerTask, p.BaseUnscheduled, p.PreemptionPenalty} {
		h = (h ^ uint64(v)) * fnvStep
	}
	return h
}

const (
	fnvSeed = 14695981039346656037
	fnvStep = 1099511628211
)

var _ CostModel = (*LoadSpread)(nil)
