package flow_test

import (
	"math/rand"
	"sync"
	"testing"

	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// TestReplicaConcurrentSolve is the solver pool's race on a shared
// structure (run it under -race): relaxation from scratch on a replica
// while incremental cost scaling runs on its source. Both must reach the
// optimum; the replica's flow and potentials must equal those relaxation
// leaves on a deep clone, bit for bit; and copying them back must install
// exactly that solution on the source. Half the seeds renumber the arcs
// first, after a task leaves, and one replica is reused throughout.
func TestReplicaConcurrentSolve(t *testing.T) {
	var replica *flow.Graph
	relax, cs := mcmf.NewRelaxation(), mcmf.NewCostScaling()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 96)
		rng.Read(data)
		o := &fuzzOps{data: data}
		g := buildSchedulingGraph(o)
		if _, err := cs.Solve(g, nil); err != nil {
			t.Fatalf("seed %d: initial solve: %v", seed, err)
		}
		mutateBatch(g, data[o.i:])
		sink, _, _, tasks := graphRoles(g)
		g.RemoveNode(tasks[rng.Intn(len(tasks))])
		g.SetSupply(sink, g.Supply(sink)+1)
		if seed%2 == 1 {
			g.CompactArcs(nil)
		}

		clone := g.Clone()
		replica = g.ReplicaInto(replica)
		var wg sync.WaitGroup
		var relaxRes, csRes mcmf.Result
		var relaxErr, csErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			relaxRes, relaxErr = relax.Solve(replica, nil)
		}()
		go func() {
			defer wg.Done()
			csRes, csErr = cs.SolveIncremental(g, nil)
		}()
		wg.Wait()
		if relaxErr != nil || csErr != nil {
			t.Fatalf("seed %d: relaxation %v, cost scaling %v", seed, relaxErr, csErr)
		}
		if relaxRes.Cost != csRes.Cost {
			t.Fatalf("seed %d: relaxation on the replica cost %d, cost scaling %d", seed, relaxRes.Cost, csRes.Cost)
		}
		for name, h := range map[string]*flow.Graph{"replica": replica, "source": g} {
			if err := h.CheckFeasible(); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if err := h.CheckOptimal(); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
		}

		if _, err := mcmf.NewRelaxation().Solve(clone, nil); err != nil {
			t.Fatalf("seed %d: relaxation on the clone: %v", seed, err)
		}
		sameSolution(t, seed, "replica", replica, clone)
		if err := g.CopyFlowAndPotentialsFrom(replica); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameSolution(t, seed, "source after the copy-back", g, clone)
	}
}

// sameSolution fails unless got carries want's residuals and potentials.
func sameSolution(t *testing.T, seed int64, what string, got, want *flow.Graph) {
	t.Helper()
	for a := 0; a < want.ArcIDBound(); a++ {
		if got.Resid(flow.ArcID(a)) != want.Resid(flow.ArcID(a)) {
			t.Fatalf("seed %d: %s: arc %d residual %d, relaxation alone leaves %d",
				seed, what, a, got.Resid(flow.ArcID(a)), want.Resid(flow.ArcID(a)))
		}
	}
	for n := 0; n < want.NodeIDBound(); n++ {
		if got.Potential(flow.NodeID(n)) != want.Potential(flow.NodeID(n)) {
			t.Fatalf("seed %d: %s: node %d potential %d, relaxation alone leaves %d",
				seed, what, n, got.Potential(flow.NodeID(n)), want.Potential(flow.NodeID(n)))
		}
	}
}
