// Package policy defines Firmament's scheduling-policy (cost model) API
// (paper §3.3) and the three policies the paper evaluates:
//
//   - load-spreading (Fig. 6a): a single cluster aggregator with per-machine
//     costs proportional to the number of running tasks;
//   - Quincy (Fig. 6b): cluster and rack aggregators plus data-locality
//     preference arcs with a configurable locality threshold;
//   - network-aware (Fig. 6c): request aggregators with dynamic arcs to
//     machines that have spare network bandwidth.
//
// A policy shapes the flow network declaratively: for every task it lists
// outgoing arcs (to machines or to aggregators), for every aggregator it
// lists arcs to machines, and for every task it prices the arc to its job's
// unscheduled aggregator. The scheduler core turns these declarations into
// incremental graph updates (paper §6.3).
package policy

import (
	"cmp"
	"time"

	"firmament/internal/cluster"
)

// Cost is an arc cost in the scheduler's abstract currency. One unit
// roughly corresponds to the cost of transferring costBytesUnit over the
// network; policies scale all other concerns (waiting, preemption,
// migration, load) into the same currency.
type Cost = int64

// AggKind classifies policy-defined aggregator nodes.
type AggKind uint8

// Aggregator kinds.
const (
	AggCluster AggKind = iota // the cluster-wide aggregator X
	AggRack                   // one per rack (Quincy policy)
	AggRequest                // one per bandwidth-request bucket (network-aware)
)

// AggID names a policy aggregator. Index is the rack ID or request bucket.
type AggID struct {
	Kind  AggKind
	Index int64
}

// Compare orders aggregator IDs by (Kind, Index), the order
// CostModel.Aggregators and HierarchicalCostModel.AggToAggArcs list them in.
func (a AggID) Compare(b AggID) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// ClusterAgg is the cluster-wide aggregator X.
var ClusterAgg = AggID{Kind: AggCluster}

// RackAgg returns the aggregator for rack r.
func RackAgg(r cluster.RackID) AggID { return AggID{Kind: AggRack, Index: int64(r)} }

// RequestAgg returns the aggregator for request bucket b.
func RequestAgg(b int64) AggID { return AggID{Kind: AggRequest, Index: b} }

// ArcTarget is the destination of a task arc: a machine if Machine >= 0,
// otherwise the aggregator Agg.
type ArcTarget struct {
	Machine cluster.MachineID
	Agg     AggID
}

// ToMachine targets machine m.
func ToMachine(m cluster.MachineID) ArcTarget { return ArcTarget{Machine: m} }

// ToAgg targets aggregator a.
func ToAgg(a AggID) ArcTarget { return ArcTarget{Machine: cluster.InvalidMachine, Agg: a} }

// Compare orders arc targets by machine ID, then by aggregator: aggregator
// targets, whose Machine is cluster.InvalidMachine, sort before machines.
func (t ArcTarget) Compare(u ArcTarget) int {
	if c := cmp.Compare(t.Machine, u.Machine); c != 0 {
		return c
	}
	return t.Agg.Compare(u.Agg)
}

// TaskArc is one policy-requested arc from a task node.
type TaskArc struct {
	Target   ArcTarget
	Cost     Cost
	Capacity int64 // usually 1
}

// MachineArc is one policy-requested arc from an aggregator to a machine.
// Key distinguishes parallel arcs to the same machine (e.g. the
// load-spreading policy emits one unit-capacity arc per occupancy level so
// that each additional task on a machine costs more).
type MachineArc struct {
	Machine  cluster.MachineID
	Key      int64
	Cost     Cost
	Capacity int64
}

// CostModel is the scheduling-policy interface (paper §3.3: "cluster
// administrators use a policy API to configure Firmament's scheduling
// policy"). Implementations must be deterministic given cluster state.
//
// For a running task, UnscheduledCost and TaskArcs must be a function of
// the task record and the policy's parameters only — not of now, nor of
// other tasks or machines. The scheduler core relies on it: it re-derives a
// running task's arcs when an event names the task or a machine joins, not
// every round (docs/solver.md, "Graph update cost model"). A waiting
// task's costs may depend on now; aggregator arcs may depend on anything.
//
// The list methods are append-style, like strconv.AppendInt: they append
// to a caller-owned dst and return the extended slice, so the core reuses
// one buffer per list and a steady round allocates nothing. Aggregators,
// AggArcs and AggToAggArcs must list strictly ascending, unique keys —
// AggID.Compare order, MachineArc by (Machine, Key) — because the core
// diffs each list against its sorted arc records in a single merge walk;
// it panics, naming the policy, on a list out of order. TaskArcs may list
// its targets in any order.
type CostModel interface {
	Name() string

	// BeginRound is called once per scheduling round before any other
	// method, corresponding to the first of the two flow-network update
	// traversals (paper §6.3): the policy gathers whatever per-machine and
	// per-aggregate statistics it needs.
	BeginRound(now time.Duration)

	// UnscheduledCost prices the arc from a task to its job's unscheduled
	// aggregator: the cost of leaving the task unscheduled, or of
	// preempting it if running (paper §3.2). It should grow with wait time
	// so that starving tasks eventually win slots.
	UnscheduledCost(t *cluster.Task, now time.Duration) Cost

	// TaskArcs appends a task's outgoing arcs to machines and aggregators
	// (excluding the unscheduled arc) to dst. For running tasks the policy
	// decides whether to include a continuation arc to the current machine
	// and migration arcs elsewhere.
	TaskArcs(dst []TaskArc, t *cluster.Task, now time.Duration) []TaskArc

	// Aggregators appends the aggregator nodes that should exist this
	// round to dst, ascending.
	Aggregators(dst []AggID) []AggID

	// AggArcs appends an aggregator's outgoing arcs to machines this round
	// to dst, ascending by (Machine, Key).
	AggArcs(dst []MachineArc, id AggID, now time.Duration) []MachineArc
}

// AggArc is one policy-requested arc from an aggregator to another
// aggregator (e.g., Quincy's X → rack aggregators).
type AggArc struct {
	To       AggID
	Cost     Cost
	Capacity int64
}

// HierarchicalCostModel is implemented by policies whose aggregators also
// connect to other aggregators, forming multi-level hierarchies. The
// scheduler core checks for this interface when wiring aggregator arcs.
type HierarchicalCostModel interface {
	CostModel
	// AggToAggArcs appends an aggregator's outgoing arcs to other
	// aggregators this round to dst, ascending by To.
	AggToAggArcs(dst []AggArc, id AggID, now time.Duration) []AggArc
}

// BandwidthOracle supplies observed per-machine network usage. The
// network-aware policy reads it each round; netsim.Fabric implements it in
// the testbed experiments.
type BandwidthOracle interface {
	IngressUsage(m cluster.MachineID) int64
}

// costBytesUnit is the data volume corresponding to one cost unit in the
// data-transfer policies: 8 MiB keeps the largest (2 TiB) inputs within a
// ~260k cost range, bounded enough for cost scaling's log(N·C) factor.
const costBytesUnit = 8 << 20

// TransferCost converts bytes-to-move into cost units.
func TransferCost(bytes int64) Cost {
	c := bytes / costBytesUnit
	if c < 0 {
		c = 0
	}
	return c
}

// WaitCost converts time waited into cost units: one unit per
// waitCostGranularity, so unscheduled costs rise steadily. The growth is
// capped at MaxWaitCost: policies size their preemption penalties above
// (base + cap), which guarantees that waiting work can never evict running
// work of the same priority class — unbounded growth would reintroduce the
// preempt/wait churn that wastes all completed work.
func WaitCost(waited time.Duration) Cost {
	if waited < 0 {
		waited = 0
	}
	c := Cost(waited / waitCostGranularity)
	if c > MaxWaitCost {
		c = MaxWaitCost
	}
	return c
}

// MaxWaitCost caps the wait-time component of unscheduled costs.
const MaxWaitCost Cost = 500

const waitCostGranularity = 2 * time.Second
