package policy

import (
	"slices"
	"time"

	"firmament/internal/cluster"
)

// NetworkAware is the bandwidth-aware policy of paper Fig. 6c: tasks
// connect to a request aggregator (RA) for their network bandwidth demand,
// and each RA maintains dynamic arcs to every machine with enough spare
// bandwidth for such a task, with capacity for as many tasks as fit. Arc
// costs are the sum of the request and the machine's current bandwidth use,
// which incentivizes balanced network utilization and avoids overcommitting
// NICs — the effect evaluated on the 40-machine testbed (paper §7.5,
// Fig. 19).
type NetworkAware struct {
	cl     *cluster.Cluster
	oracle BandwidthOracle

	// BucketBytes is the request-aggregation granularity (default 64 MB/s):
	// tasks whose demands round up to the same bucket share an RA.
	BucketBytes int64
	// BaseUnscheduled and PreemptionPenalty mirror the other policies.
	BaseUnscheduled   Cost
	PreemptionPenalty Cost
	// RateCostUnit converts bytes/sec of (request + usage) into cost
	// (default 16 MB/s per cost unit).
	RateCostUnit int64

	buckets map[int64]struct{} // active request buckets, rebuilt per round
	keys    []int64            // Aggregators' sort buffer
}

// NewNetworkAware returns the network-aware policy over cl, reading
// observed bandwidth from oracle (pass nil to price on reservations only).
func NewNetworkAware(cl *cluster.Cluster, oracle BandwidthOracle) *NetworkAware {
	return &NetworkAware{
		cl:                cl,
		oracle:            oracle,
		BucketBytes:       64 << 20,
		BaseUnscheduled:   1200,
		PreemptionPenalty: 8000,
		RateCostUnit:      16 << 20,
		buckets:           make(map[int64]struct{}),
	}
}

// Name implements CostModel.
func (p *NetworkAware) Name() string { return "network-aware" }

// Bucket returns the request bucket for a bandwidth demand.
func (p *NetworkAware) Bucket(demand int64) int64 {
	if demand <= 0 {
		return 0
	}
	return (demand + p.BucketBytes - 1) / p.BucketBytes
}

// BeginRound implements CostModel: collect the active request buckets (the
// first update traversal of paper §6.3).
func (p *NetworkAware) BeginRound(now time.Duration) {
	clear(p.buckets)
	for _, id := range p.cl.PendingTasks() {
		p.buckets[p.Bucket(p.cl.Task(id).NetDemand)] = struct{}{}
	}
}

// UnscheduledCost implements CostModel.
func (p *NetworkAware) UnscheduledCost(t *cluster.Task, now time.Duration) Cost {
	if t.State == cluster.TaskRunning {
		return p.PreemptionPenalty
	}
	return p.BaseUnscheduled + WaitCost(now-t.SubmitTime)
}

// TaskArcs implements CostModel.
func (p *NetworkAware) TaskArcs(dst []TaskArc, t *cluster.Task, now time.Duration) []TaskArc {
	if t.State == cluster.TaskRunning {
		return append(dst, TaskArc{Target: ToMachine(t.Machine), Cost: 0, Capacity: 1})
	}
	return append(dst, TaskArc{Target: ToAgg(RequestAgg(p.Bucket(t.NetDemand))), Cost: 0, Capacity: 1})
}

// Aggregators implements CostModel: one RA per active bucket.
func (p *NetworkAware) Aggregators(dst []AggID) []AggID {
	p.keys = p.keys[:0]
	for b := range p.buckets {
		p.keys = append(p.keys, b)
	}
	slices.Sort(p.keys)
	for _, b := range p.keys {
		dst = append(dst, RequestAgg(b))
	}
	return dst
}

// AggArcs implements CostModel: dynamic arcs to machines with spare
// bandwidth (paper Fig. 6c: e.g. 650 MB/s of 1.25 GB/s used on a 10G link
// leaves room for a 400 MB/s request). Capacity is the number of such
// tasks that fit, bounded by free slots.
func (p *NetworkAware) AggArcs(dst []MachineArc, id AggID, now time.Duration) []MachineArc {
	if id.Kind != AggRequest {
		return dst
	}
	request := id.Index * p.BucketBytes
	out := dst
	p.cl.Machines(func(m *cluster.Machine) {
		if !m.Healthy() {
			return
		}
		// Full slot count (not free slots): displacement through the
		// aggregate must stay routable; the machine→sink arc enforces the
		// slot constraint.
		fits := int64(m.Slots)
		used := m.ReservedBandwidth()
		if p.oracle != nil {
			if obs := p.oracle.IngressUsage(m.ID); obs > used {
				used = obs
			}
		}
		spare := m.NICBps - used
		if request > 0 {
			if spare < request {
				return // no room for even one such task
			}
			if byBw := spare / request; byBw < fits {
				fits = byBw
			}
		}
		out = append(out, MachineArc{
			Machine:  m.ID,
			Cost:     (request + used) / p.RateCostUnit,
			Capacity: fits,
		})
	})
	return out
}

var _ CostModel = (*NetworkAware)(nil)
