package policy

import (
	"time"

	"firmament/internal/cluster"
	"firmament/internal/storage"
)

// Quincy is the locality-oriented batch policy of Quincy [22], as sketched
// in paper Fig. 6b: tasks get low-cost preference arcs to machines and
// racks that hold (enough of) their input data, and fall back to the
// cluster aggregator X otherwise. X fans out hierarchically to rack
// aggregators, which fan out to their machines.
//
// The PreferenceThreshold is the fraction of a task's input that must
// reside on a machine (or rack) for the task to receive a preference arc;
// the paper's Figure 15 contrasts 14% (Quincy's original ~7 arcs/task) with
// 2%, which Firmament's faster solver makes affordable.
type Quincy struct {
	cl    *cluster.Cluster
	store *storage.Store

	// PreferenceThreshold is the minimum locality fraction earning a
	// preference arc (default 0.14).
	PreferenceThreshold float64
	// MaxPrefArcsPerTask caps machine preference arcs (Quincy used 10).
	MaxPrefArcsPerTask int
	// BaseUnscheduled is the pending-task unscheduled cost floor.
	BaseUnscheduled Cost
	// ServiceUnscheduled is the unscheduled cost for service tasks, high
	// enough that they always win slots over batch work (the experiments
	// prioritize service jobs over batch, paper §4.2).
	ServiceUnscheduled Cost
	// PreemptionPenalty prices evicting a running batch task.
	PreemptionPenalty Cost
	// MigrationPenalty is added to a running task's preference arcs so
	// migration happens only for substantial gain.
	MigrationPenalty Cost
}

// NewQuincy returns the Quincy policy over cl with input locality from
// store.
func NewQuincy(cl *cluster.Cluster, store *storage.Store) *Quincy {
	return &Quincy{
		cl:    cl,
		store: store,
		// The unscheduled cost floor must exceed the transfer cost of
		// typical inputs (≈40 GiB at the TransferCost scale), so tasks
		// place immediately when slots exist and trade wait time against
		// locality only for enormous inputs.
		PreferenceThreshold: 0.14,
		MaxPrefArcsPerTask:  10,
		BaseUnscheduled:     5000,
		ServiceUnscheduled:  1000000,
		PreemptionPenalty:   16000,
		MigrationPenalty:    60,
	}
}

// Name implements CostModel.
func (p *Quincy) Name() string { return "quincy" }

// BeginRound implements CostModel.
func (p *Quincy) BeginRound(now time.Duration) {}

// UnscheduledCost implements CostModel.
func (p *Quincy) UnscheduledCost(t *cluster.Task, now time.Duration) Cost {
	if t.State == cluster.TaskRunning {
		if p.isService(t) {
			return p.ServiceUnscheduled // never preempt service tasks
		}
		return p.PreemptionPenalty
	}
	if p.isService(t) {
		return p.ServiceUnscheduled + WaitCost(now-t.SubmitTime)
	}
	return p.BaseUnscheduled + 20*WaitCost(now-t.SubmitTime)
}

// TaskArcs implements CostModel. The cost of a preference arc is the
// remote-transfer volume implied by the placement; the fallback arc through
// X pays the full (all-remote) input transfer.
func (p *Quincy) TaskArcs(dst []TaskArc, t *cluster.Task, now time.Duration) []TaskArc {
	out := dst
	if t.State == cluster.TaskRunning {
		// Continuation arc: staying put costs nothing further.
		out = append(out, TaskArc{Target: ToMachine(t.Machine), Cost: 0, Capacity: 1})
		// Migration arcs to strongly-preferred machines.
		if t.InputFile >= 0 {
			for _, loc := range p.machinePrefs(t) {
				if loc.Machine == t.Machine {
					continue
				}
				cost := p.machineCost(t, loc.Fraction) + p.MigrationPenalty
				out = append(out, TaskArc{Target: ToMachine(loc.Machine), Cost: cost, Capacity: 1})
			}
		}
		return out
	}
	// Pending task: fallback through the cluster aggregator...
	out = append(out, TaskArc{Target: ToAgg(ClusterAgg), Cost: p.clusterCost(t), Capacity: 1})
	if t.InputFile < 0 {
		return out
	}
	// ... plus machine preference arcs ...
	for _, loc := range p.machinePrefs(t) {
		out = append(out, TaskArc{
			Target:   ToMachine(loc.Machine),
			Cost:     p.machineCost(t, loc.Fraction),
			Capacity: 1,
		})
	}
	// ... plus rack preference arcs.
	for _, loc := range p.store.RackPreferences(t.InputFile, p.PreferenceThreshold) {
		out = append(out, TaskArc{
			Target:   ToAgg(RackAgg(loc.Rack)),
			Cost:     p.rackCost(t, loc.Fraction),
			Capacity: 1,
		})
	}
	return out
}

func (p *Quincy) machinePrefs(t *cluster.Task) []storage.Locality {
	prefs := p.store.MachinePreferences(t.InputFile, p.PreferenceThreshold)
	if len(prefs) > p.MaxPrefArcsPerTask {
		prefs = prefs[:p.MaxPrefArcsPerTask]
	}
	return prefs
}

// The three placement cost tiers mirror Quincy's α ≥ ρ ≥ γ ordering [22,
// §4.2]: the cluster fallback assumes every byte crosses racks; a rack
// placement reads in-rack data at a quarter of the cross-rack cost; a
// machine preference additionally reads its non-local data mostly from
// within the rack. The formulas guarantee machineCost ≤ rackCost ≤
// clusterCost for any locality fractions, so the solver refines placements
// to the most local level with capacity.

// clusterCost prices scheduling via the cluster aggregator X: the whole
// input transfers cross-rack.
func (p *Quincy) clusterCost(t *cluster.Task) Cost {
	return TransferCost(t.InputSize)
}

// rackCost prices scheduling somewhere in a rack holding rackFraction of
// the input: in-rack bytes cost a quarter of cross-rack bytes.
func (p *Quincy) rackCost(t *cluster.Task, rackFraction float64) Cost {
	eff := float64(t.InputSize) * (1 - 0.75*rackFraction)
	return TransferCost(int64(eff))
}

// machineCost prices scheduling on a machine holding localFraction of the
// input: local bytes are free, and the remainder reads at in-rack rates
// (replicas are spread, so most missing blocks are a rack hop away).
func (p *Quincy) machineCost(t *cluster.Task, localFraction float64) Cost {
	remote := float64(t.InputSize) * (1 - localFraction) / 4
	return TransferCost(int64(remote))
}

// isService reports whether the task belongs to a service job.
func (p *Quincy) isService(t *cluster.Task) bool {
	j := p.cl.Job(t.Job)
	return j != nil && j.Class == cluster.Service
}

// Aggregators implements CostModel: X plus one aggregator per rack.
func (p *Quincy) Aggregators(dst []AggID) []AggID {
	dst = append(dst, ClusterAgg)
	for r := 0; r < p.cl.NumRacks(); r++ {
		dst = append(dst, RackAgg(cluster.RackID(r)))
	}
	return dst
}

// AggArcs implements CostModel: X fans out to rack aggregators — encoded as
// arcs to the first machine of each rack would be wrong, so X's arcs are
// returned via the scheduler core's aggregator-to-aggregator support:
// here, X targets every rack aggregator through AggToAggArcs, and rack
// aggregators target their machines.
func (p *Quincy) AggArcs(dst []MachineArc, id AggID, now time.Duration) []MachineArc {
	if id.Kind != AggRack {
		return dst
	}
	out := dst
	for _, mid := range p.cl.RackMachines(cluster.RackID(id.Index)) {
		m := p.cl.Machine(mid)
		if !m.Healthy() {
			continue
		}
		// Capacity is the machine's full slot count, not its free slots:
		// the flow network reschedules running tasks too, and preemption-
		// driven displacement (e.g. a service task evicting batch work)
		// needs aggregate paths through occupied machines. The
		// machine→sink arc enforces the real slot constraint.
		out = append(out, MachineArc{Machine: mid, Cost: 0, Capacity: int64(m.Slots)})
	}
	return out
}

// AggToAggArcs reports aggregator-to-aggregator arcs: X connects to every
// rack aggregator with the rack's free-slot capacity.
func (p *Quincy) AggToAggArcs(dst []AggArc, id AggID, now time.Duration) []AggArc {
	if id != ClusterAgg {
		return dst
	}
	out := dst
	for r := 0; r < p.cl.NumRacks(); r++ {
		var slots int64
		for _, mid := range p.cl.RackMachines(cluster.RackID(r)) {
			m := p.cl.Machine(mid)
			if m.Healthy() {
				slots += int64(m.Slots)
			}
		}
		if slots > 0 {
			out = append(out, AggArc{To: RackAgg(cluster.RackID(r)), Cost: 0, Capacity: slots})
		}
	}
	return out
}

var _ CostModel = (*Quincy)(nil)
var _ HierarchicalCostModel = (*Quincy)(nil)
