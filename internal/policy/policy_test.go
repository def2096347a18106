package policy

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/storage"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 4})
}

func TestTransferCostMonotone(t *testing.T) {
	if TransferCost(0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	if TransferCost(1<<30) >= TransferCost(4<<30) {
		t.Fatal("cost not monotone in bytes")
	}
	if TransferCost(-5) != 0 {
		t.Fatal("negative bytes must clamp to zero")
	}
}

func TestWaitCostGrows(t *testing.T) {
	if WaitCost(0) != 0 || WaitCost(-time.Second) != 0 {
		t.Fatal("zero/negative wait must cost zero")
	}
	if WaitCost(time.Minute) <= WaitCost(time.Second) {
		t.Fatal("wait cost not growing")
	}
}

func TestLoadSpreadGraduatedArcs(t *testing.T) {
	cl := testCluster()
	p := NewLoadSpread(cl)
	p.BeginRound(0)
	arcs := p.AggArcs(nil, ClusterAgg, 0)
	// 8 machines × 4 free slots = 32 unit arcs.
	if len(arcs) != 32 {
		t.Fatalf("arcs = %d, want 32", len(arcs))
	}
	perMachine := map[cluster.MachineID][]MachineArc{}
	for _, a := range arcs {
		if a.Capacity != 1 {
			t.Fatalf("graduated arc capacity %d, want 1", a.Capacity)
		}
		perMachine[a.Machine] = append(perMachine[a.Machine], a)
	}
	for m, as := range perMachine {
		for i := 1; i < len(as); i++ {
			if as[i].Cost <= as[i-1].Cost {
				t.Fatalf("machine %d: costs not strictly increasing", m)
			}
		}
	}
	// Occupied machines start at higher cost levels.
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 2))
	cl.Place(job.Tasks[0], 0, 0)
	cl.Place(job.Tasks[1], 0, 0)
	arcs = p.AggArcs(nil, ClusterAgg, 0)
	var m0Min Cost = 1 << 60
	for _, a := range arcs {
		if a.Machine == 0 && a.Cost < m0Min {
			m0Min = a.Cost
		}
	}
	if m0Min != 2*p.CostPerTask {
		t.Fatalf("occupied machine min cost = %d, want %d", m0Min, 2*p.CostPerTask)
	}
}

func TestLoadSpreadRunningTaskArc(t *testing.T) {
	cl := testCluster()
	p := NewLoadSpread(cl)
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 1))
	task := cl.Task(job.Tasks[0])
	arcs := p.TaskArcs(nil, task, 0)
	if len(arcs) != 1 || arcs[0].Target.Agg != ClusterAgg {
		t.Fatalf("pending arcs = %+v, want single X arc", arcs)
	}
	cl.Place(task.ID, 3, 0)
	arcs = p.TaskArcs(nil, task, 0)
	if len(arcs) != 1 || arcs[0].Target.Machine != 3 || arcs[0].Cost != 0 {
		t.Fatalf("running arcs = %+v, want zero-cost arc to machine 3", arcs)
	}
}

func TestQuincyCostTierOrdering(t *testing.T) {
	cl := testCluster()
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	p := NewQuincy(cl, store)
	task := &cluster.Task{InputSize: 8 << 30}
	check := func(mf, rf float64) bool {
		if mf < 0 || mf > 1 || rf < 0 || rf > 1 {
			return true
		}
		mc := p.machineCost(task, mf)
		rc := p.rackCost(task, rf)
		cc := p.clusterCost(task)
		return mc <= rc && rc <= cc
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Higher locality is strictly cheaper at this input size.
	if p.machineCost(task, 0.9) >= p.machineCost(task, 0.1) {
		t.Fatal("machine cost not decreasing in locality")
	}
	if p.rackCost(task, 0.9) >= p.rackCost(task, 0.1) {
		t.Fatal("rack cost not decreasing in locality")
	}
}

func TestQuincyWaitRaisesUnscheduledCost(t *testing.T) {
	cl := testCluster()
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	p := NewQuincy(cl, store)
	job := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 1))
	task := cl.Task(job.Tasks[0])
	early := p.UnscheduledCost(task, time.Second)
	late := p.UnscheduledCost(task, 5*time.Minute)
	if late <= early {
		t.Fatal("unscheduled cost must grow with wait time")
	}
}

func TestQuincyServiceCostsDominates(t *testing.T) {
	cl := testCluster()
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	p := NewQuincy(cl, store)
	bj := cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 1))
	sj := cl.SubmitJob(cluster.Service, 10, 0, make([]cluster.TaskSpec, 1))
	batch := cl.Task(bj.Tasks[0])
	svc := cl.Task(sj.Tasks[0])
	if p.UnscheduledCost(svc, 0) <= p.UnscheduledCost(batch, time.Hour) {
		t.Fatal("service unscheduled cost must dominate batch")
	}
	// Preempting a running service task must cost more than preempting
	// a running batch task.
	cl.Place(batch.ID, 0, 0)
	cl.Place(svc.ID, 1, 0)
	if p.UnscheduledCost(svc, 0) <= p.UnscheduledCost(batch, 0) {
		t.Fatal("service preemption must cost more than batch preemption")
	}
}

func TestQuincyAggregators(t *testing.T) {
	cl := testCluster()
	store := storage.NewStore(cl, storage.Config{Seed: 1})
	p := NewQuincy(cl, store)
	aggs := p.Aggregators(nil)
	if len(aggs) != 3 { // X + 2 racks
		t.Fatalf("aggregators = %v, want X + 2 racks", aggs)
	}
	xArcs := p.AggToAggArcs(nil, ClusterAgg, 0)
	if len(xArcs) != 2 {
		t.Fatalf("X->rack arcs = %d, want 2", len(xArcs))
	}
	for _, a := range xArcs {
		if a.Capacity != 16 { // 4 machines × 4 slots
			t.Fatalf("X->rack capacity = %d, want 16", a.Capacity)
		}
	}
	rArcs := p.AggArcs(nil, RackAgg(0), 0)
	if len(rArcs) != 4 {
		t.Fatalf("rack 0 arcs = %d, want 4", len(rArcs))
	}
}

func TestNetworkAwareBucketing(t *testing.T) {
	cl := testCluster()
	p := NewNetworkAware(cl, nil)
	if p.Bucket(0) != 0 || p.Bucket(-5) != 0 {
		t.Fatal("non-positive demand must bucket to 0")
	}
	if p.Bucket(1) != 1 || p.Bucket(p.BucketBytes) != 1 || p.Bucket(p.BucketBytes+1) != 2 {
		t.Fatal("bucket rounding wrong")
	}
}

func TestNetworkAwareAggregatorsFollowPendingTasks(t *testing.T) {
	cl := testCluster()
	p := NewNetworkAware(cl, nil)
	p.BeginRound(0)
	if len(p.Aggregators(nil)) != 0 {
		t.Fatal("aggregators exist with no pending tasks")
	}
	cl.SubmitJob(cluster.Batch, 0, 0, []cluster.TaskSpec{
		{NetDemand: 10 << 20}, {NetDemand: 10 << 20}, {NetDemand: 500 << 20},
	})
	p.BeginRound(0)
	aggs := p.Aggregators(nil)
	if len(aggs) != 2 {
		t.Fatalf("aggregators = %v, want 2 distinct buckets", aggs)
	}
}

func TestNetworkAwareSkipsSaturatedMachines(t *testing.T) {
	const gbps = 1000 * 1000 * 1000 / 8
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 4, NICBps: 10 * gbps})
	oracle := map[cluster.MachineID]int64{0: int64(10 * gbps)}
	p := NewNetworkAware(cl, oracleFunc(func(m cluster.MachineID) int64 { return oracle[m] }))
	arcs := p.AggArcs(nil, RequestAgg(p.Bucket(2*gbps)), 0)
	if len(arcs) != 1 || arcs[0].Machine != 1 {
		t.Fatalf("arcs = %+v, want only machine 1", arcs)
	}
	// Capacity limited by bandwidth: machine 1 fits 10G/2G = 5, but only
	// 4 slots.
	if arcs[0].Capacity != 4 {
		t.Fatalf("capacity = %d, want 4 (slot-bound)", arcs[0].Capacity)
	}
}

// TestListOrderingContract checks the CostModel ordering contract the
// scheduler core's merge walks rely on — Aggregators, AggArcs and
// AggToAggArcs list strictly ascending, unique keys — and that the lists
// append to dst, for every shipped policy at partial occupancy and after a
// machine removal.
func TestListOrderingContract(t *testing.T) {
	const gbps = 1000 * 1000 * 1000 / 8
	policies := []struct {
		name  string
		build func(cl *cluster.Cluster) CostModel
	}{
		{"load-spread", func(cl *cluster.Cluster) CostModel { return NewLoadSpread(cl) }},
		{"quincy", func(cl *cluster.Cluster) CostModel {
			return NewQuincy(cl, storage.NewStore(cl, storage.Config{Seed: 1}))
		}},
		{"network-aware", func(cl *cluster.Cluster) CostModel {
			return NewNetworkAware(cl, oracleFunc(func(m cluster.MachineID) int64 { return int64(m) * gbps }))
		}},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			cl := cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 4, NICBps: 10 * gbps})
			p := pol.build(cl)
			specs := make([]cluster.TaskSpec, 12)
			for i := range specs {
				specs[i] = cluster.TaskSpec{InputFile: -1, NetDemand: int64(i%4) * gbps / 2}
			}
			job := cl.SubmitJob(cluster.Batch, 0, 0, specs)
			for i, m := range []cluster.MachineID{0, 0, 0, 0, 1, 1, 5, 6} {
				if err := cl.Place(job.Tasks[i], m, 0); err != nil {
					t.Fatal(err)
				}
			}
			checkListOrder(t, p, "partial occupancy")
			if err := cl.RemoveMachine(1, 0); err != nil {
				t.Fatal(err)
			}
			checkListOrder(t, p, "after machine removal")
		})
	}
}

func checkListOrder(t *testing.T, p CostModel, when string) {
	t.Helper()
	p.BeginRound(0)
	aggs := p.Aggregators(nil)
	if len(aggs) == 0 {
		t.Fatalf("%s: no aggregators", when)
	}
	if got := p.Aggregators(aggs[:1:1]); !slices.Equal(got[1:], aggs) {
		t.Fatalf("%s: Aggregators(dst) = %v, want dst followed by %v", when, got, aggs)
	}
	for i := 1; i < len(aggs); i++ {
		if aggs[i-1].Compare(aggs[i]) >= 0 {
			t.Fatalf("%s: Aggregators not strictly ascending: %v", when, aggs)
		}
	}
	for _, id := range aggs {
		arcs := p.AggArcs(nil, id, 0)
		if got := p.AggArcs([]MachineArc{{Machine: -7}}, id, 0); got[0].Machine != -7 || !slices.Equal(got[1:], arcs) {
			t.Fatalf("%s: AggArcs(dst, %v) does not append to dst", when, id)
		}
		for i := 1; i < len(arcs); i++ {
			a, b := arcs[i-1], arcs[i]
			if a.Machine > b.Machine || a.Machine == b.Machine && a.Key >= b.Key {
				t.Fatalf("%s: AggArcs(%v) not strictly ascending at %d: %+v", when, id, i, arcs)
			}
		}
		h, ok := p.(HierarchicalCostModel)
		if !ok {
			continue
		}
		aarcs := h.AggToAggArcs(nil, id, 0)
		for i := 1; i < len(aarcs); i++ {
			if aarcs[i-1].To.Compare(aarcs[i].To) >= 0 {
				t.Fatalf("%s: AggToAggArcs(%v) not strictly ascending: %+v", when, id, aarcs)
			}
		}
	}
}

type oracleFunc func(cluster.MachineID) int64

func (f oracleFunc) IngressUsage(m cluster.MachineID) int64 { return f(m) }
