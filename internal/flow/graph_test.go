package flow

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := NewGraph(4, 4)
	a := g.AddNode(1, KindTask)
	b := g.AddNode(0, KindMachine)
	c := g.AddNode(-1, KindSink)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("got IDs %d,%d,%d want 0,1,2", a, b, c)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.Supply(a) != 1 || g.Supply(c) != -1 {
		t.Fatalf("supplies wrong: %d, %d", g.Supply(a), g.Supply(c))
	}
	if g.Kind(b) != KindMachine {
		t.Fatalf("kind = %v, want machine", g.Kind(b))
	}
}

func TestNodeFreeListReuse(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindTask)
	g.RemoveNode(a)
	if g.NodeInUse(a) {
		t.Fatal("removed node still in use")
	}
	c := g.AddNode(5, KindMachine)
	if c != a {
		t.Fatalf("expected freed ID %d to be reused, got %d", a, c)
	}
	if g.Supply(c) != 5 || g.Kind(c) != KindMachine {
		t.Fatal("reused node kept stale state")
	}
	if g.NodeIDBound() != 2 {
		t.Fatalf("NodeIDBound = %d, want 2", g.NodeIDBound())
	}
	_ = b
}

func TestArcPairSemantics(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(2, KindTask)
	d := g.AddNode(-2, KindSink)
	a := g.AddArc(s, d, 5, 7)
	if !g.IsForward(a) {
		t.Fatal("AddArc returned a reverse arc")
	}
	r := g.Reverse(a)
	if g.Head(a) != d || g.Tail(a) != s {
		t.Fatal("forward endpoints wrong")
	}
	if g.Head(r) != s || g.Tail(r) != d {
		t.Fatal("reverse endpoints wrong")
	}
	if g.Cost(a) != 7 || g.Cost(r) != -7 {
		t.Fatalf("costs: fwd %d rev %d, want 7/-7", g.Cost(a), g.Cost(r))
	}
	if g.Capacity(a) != 5 || g.Flow(a) != 0 || g.Resid(a) != 5 || g.Resid(r) != 0 {
		t.Fatal("initial capacity/flow state wrong")
	}
	g.Push(a, 3)
	if g.Flow(a) != 3 || g.Resid(a) != 2 || g.Resid(r) != 3 {
		t.Fatalf("after push: flow %d resid %d rev %d", g.Flow(a), g.Resid(a), g.Resid(r))
	}
	g.Push(r, 1) // cancel one unit
	if g.Flow(a) != 2 {
		t.Fatalf("after reverse push: flow %d, want 2", g.Flow(a))
	}
	if g.Capacity(r) != 5 {
		t.Fatal("Capacity must work on reverse IDs too")
	}
}

func TestPushPanicsBeyondResidual(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(1, KindTask)
	d := g.AddNode(-1, KindSink)
	a := g.AddArc(s, d, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing beyond residual capacity")
		}
	}()
	g.Push(a, 2)
}

func TestRemoveArcUnlinksBothAdjacencyLists(t *testing.T) {
	g := NewGraph(3, 3)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindMachine)
	c := g.AddNode(0, KindSink)
	ab := g.AddArc(a, b, 1, 1)
	ac := g.AddArc(a, c, 1, 2)
	bc := g.AddArc(b, c, 1, 3)
	g.RemoveArc(ab)
	if g.ArcInUse(ab) || g.ArcInUse(g.Reverse(ab)) {
		t.Fatal("removed arc pair still in use")
	}
	if got := countOut(g, a); got != 1 {
		t.Fatalf("node a has %d out-arcs, want 1", got)
	}
	if got := countOut(g, b); got != 1 { // bc forward remains; ab reverse gone
		t.Fatalf("node b has %d out-arcs, want 1", got)
	}
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d, want 2", g.NumArcs())
	}
	// Freed pair is reused by the next AddArc.
	ca := g.AddArc(c, a, 9, 9)
	if ca != ab {
		t.Fatalf("expected freed arc ID %d reused, got %d", ab, ca)
	}
	if g.Tail(ca) != c || g.Head(ca) != a || g.Capacity(ca) != 9 {
		t.Fatal("reused arc has stale state")
	}
	_ = ac
	_ = bc
}

func TestRemoveNodeRemovesIncidentArcs(t *testing.T) {
	g := NewGraph(3, 3)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindAggregator)
	c := g.AddNode(0, KindSink)
	g.AddArc(a, b, 1, 1)
	g.AddArc(b, c, 1, 1)
	g.AddArc(c, b, 1, 1) // incoming to b as well
	g.RemoveNode(b)
	if g.NumArcs() != 0 {
		t.Fatalf("NumArcs = %d, want 0 after removing hub node", g.NumArcs())
	}
	if countOut(g, a) != 0 || countOut(g, c) != 0 {
		t.Fatal("neighbours retain dangling arcs")
	}
}

func TestSetArcCapacityCancelsStrandedFlow(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(3, KindTask)
	d := g.AddNode(-3, KindSink)
	a := g.AddArc(s, d, 3, 1)
	g.Push(a, 3)
	if err := g.CheckFeasible(); err != nil {
		t.Fatalf("feasible flow rejected: %v", err)
	}
	g.SetArcCapacity(a, 1)
	if g.Flow(a) != 1 || g.Capacity(a) != 1 {
		t.Fatalf("flow %d cap %d after shrink, want 1/1", g.Flow(a), g.Capacity(a))
	}
	// Shrinking below flow must surface as imbalance, not negative residual.
	im := g.Imbalances()
	if im[s] != 2 || im[d] != -2 {
		t.Fatalf("imbalances = %v, want +2 at source, -2 at sink", im)
	}
	if err := g.CheckFeasible(); err == nil {
		t.Fatal("expected infeasibility after capacity shrink below flow")
	}
}

func TestSetArcCostUpdatesBothDirections(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(0, KindTask)
	d := g.AddNode(0, KindSink)
	a := g.AddArc(s, d, 1, 10)
	g.SetArcCost(g.Reverse(a), 4) // reverse ID must address the pair
	if g.Cost(a) != 4 || g.Cost(g.Reverse(a)) != -4 {
		t.Fatalf("costs %d/%d, want 4/-4", g.Cost(a), g.Cost(g.Reverse(a)))
	}
}

func TestTotalCostAndFeasibility(t *testing.T) {
	// Figure 5-like miniature: two tasks, two machines, one unscheduled agg.
	g := NewGraph(6, 8)
	t0 := g.AddNode(1, KindTask)
	t1 := g.AddNode(1, KindTask)
	m0 := g.AddNode(0, KindMachine)
	m1 := g.AddNode(0, KindMachine)
	u := g.AddNode(0, KindUnsched)
	sink := g.AddNode(-2, KindSink)

	a0 := g.AddArc(t0, m0, 1, 2)
	g.AddArc(t0, u, 1, 5)
	a1 := g.AddArc(t1, m1, 1, 3)
	g.AddArc(t1, u, 1, 5)
	ms0 := g.AddArc(m0, sink, 1, 0)
	ms1 := g.AddArc(m1, sink, 1, 0)
	g.AddArc(u, sink, 2, 0)

	g.Push(a0, 1)
	g.Push(ms0, 1)
	g.Push(a1, 1)
	g.Push(ms1, 1)

	if err := g.CheckFeasible(); err != nil {
		t.Fatalf("CheckFeasible: %v", err)
	}
	if c := g.TotalCost(); c != 5 {
		t.Fatalf("TotalCost = %d, want 5", c)
	}
	if s := g.TotalSupply(); s != 2 {
		t.Fatalf("TotalSupply = %d, want 2", s)
	}
	if err := g.CheckOptimal(); err != nil {
		t.Fatalf("optimal flow flagged as suboptimal: %v", err)
	}
}

func TestCheckOptimalDetectsNegativeCycle(t *testing.T) {
	// Route flow the expensive way round so the residual network has a
	// negative cycle.
	g := NewGraph(3, 3)
	s := g.AddNode(1, KindTask)
	mid := g.AddNode(0, KindOther)
	d := g.AddNode(-1, KindSink)
	cheap := g.AddArc(s, d, 1, 1)
	exp1 := g.AddArc(s, mid, 1, 5)
	exp2 := g.AddArc(mid, d, 1, 5)
	g.Push(exp1, 1)
	g.Push(exp2, 1)
	if err := g.CheckFeasible(); err != nil {
		t.Fatalf("CheckFeasible: %v", err)
	}
	if err := g.CheckOptimal(); err == nil {
		t.Fatal("expected negative-cycle detection for expensive routing")
	}
	_ = cheap
}

func TestCloneIsIndependent(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(1, KindTask)
	d := g.AddNode(-1, KindSink)
	a := g.AddArc(s, d, 2, 3)
	g.SetPotential(s, 42)
	c := g.Clone()
	c.Push(a, 1)
	c.SetPotential(s, 7)
	c.SetSupply(s, 9)
	if g.Flow(a) != 0 || g.Potential(s) != 42 || g.Supply(s) != 1 {
		t.Fatal("mutating clone affected original")
	}
	n := c.AddNode(0, KindMachine)
	if g.NodeInUse(n) && g.NumNodes() != 2 {
		t.Fatal("clone AddNode affected original")
	}
}

func TestCopyFlowAndPotentialsFrom(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(1, KindTask)
	d := g.AddNode(-1, KindSink)
	a := g.AddArc(s, d, 2, 3)
	h := g.Clone()
	h.Push(a, 2)
	h.SetPotential(d, -3)
	if err := g.CopyFlowAndPotentialsFrom(h); err != nil {
		t.Fatalf("CopyFlowAndPotentialsFrom: %v", err)
	}
	if g.Flow(a) != 2 || g.Potential(d) != -3 {
		t.Fatal("flow/potentials not copied")
	}
	other := NewGraph(1, 0)
	other.AddNode(0, KindTask)
	if err := g.CopyFlowAndPotentialsFrom(other); err == nil {
		t.Fatal("expected topology mismatch error")
	}
}

func TestResetFlow(t *testing.T) {
	g := NewGraph(2, 1)
	s := g.AddNode(1, KindTask)
	d := g.AddNode(-1, KindSink)
	a := g.AddArc(s, d, 2, 3)
	g.Push(a, 2)
	g.ResetFlow()
	if g.Flow(a) != 0 || g.Resid(a) != 2 {
		t.Fatal("ResetFlow did not restore capacities")
	}
}

func TestChangeSetRecording(t *testing.T) {
	var cs ChangeSet
	if !cs.Empty() || cs.Len() != 0 {
		t.Fatal("new ChangeSet not empty")
	}
	for i := 0; i < 3; i++ {
		cs.Add()
	}
	if cs.Empty() || cs.Len() != 3 {
		t.Fatalf("Len = %d after three Adds, want 3", cs.Len())
	}
	cs.Reset()
	if !cs.Empty() || cs.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", cs.Len())
	}
	cs.Add()
	if cs.Len() != 1 {
		t.Fatalf("Len = %d after Reset and one Add, want 1", cs.Len())
	}
}

func countOut(g *Graph, n NodeID) int { return len(g.Out(n)) }

// TestQuickAdjacencyInvariants drives a random sequence of graph mutations
// and verifies structural invariants after each: adjacency rows are laid
// out consistently, arc pairs agree on endpoints and costs, and live counts
// match reality.
func TestQuickAdjacencyInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(0, 0)
		var nodes []NodeID
		var arcs []ArcID
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(nodes) < 2:
				nodes = append(nodes, g.AddNode(int64(rng.Intn(5)-2), KindOther))
			case r < 8:
				tail := nodes[rng.Intn(len(nodes))]
				head := nodes[rng.Intn(len(nodes))]
				if tail == head {
					continue
				}
				a := g.AddArc(tail, head, int64(rng.Intn(10)), int64(rng.Intn(20)-10))
				arcs = append(arcs, a)
				if c := g.Resid(a); c > 0 && rng.Intn(2) == 0 {
					g.Push(a, int64(rng.Intn(int(c)))+0)
				}
			case r == 8 && len(arcs) > 0:
				i := rng.Intn(len(arcs))
				g.RemoveArc(arcs[i])
				arcs = append(arcs[:i], arcs[i+1:]...)
			default:
				if len(nodes) == 0 {
					continue
				}
				i := rng.Intn(len(nodes))
				n := nodes[i]
				nodes = append(nodes[:i], nodes[i+1:]...)
				// Drop arc records incident to n.
				kept := arcs[:0]
				for _, a := range arcs {
					if g.Tail(a) != n && g.Head(a) != n {
						kept = append(kept, a)
					}
				}
				arcs = kept
				g.RemoveNode(n)
			}
			if err := adjacencyConsistent(g); err != nil {
				t.Log(err)
				return false
			}
			if g.NumArcs() != len(arcs) || g.NumNodes() != len(nodes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// adjacencyConsistent verifies the raw row layout, blanks and all, without
// compacting anything: row regions lie inside the backing array and never
// overlap, the slots outside every region are the counted relocation holes
// and no more than half the array, every filled slot holds a live arc leaving the row's node whose
// position plane points back at the slot, a row with a blank is marked
// dirty, every live arc sits in exactly one row, and arc pairs agree on
// costs and hold no negative residual.
func adjacencyConsistent(g *Graph) error {
	r := &g.adj
	owner := make([]NodeID, len(r.ids))
	for i := range owner {
		owner[i] = InvalidNode
	}
	dirty := make(map[NodeID]bool)
	for _, n := range r.dirty {
		dirty[n] = true
	}
	seen := make([]bool, g.ArcIDBound())
	owned := 0
	for i := 0; i < g.NodeIDBound(); i++ {
		n := NodeID(i)
		lo, s, e := r.start[n]-r.free[n], r.start[n], r.start[n]+r.deg[n]
		if lo < 0 || r.free[n] < 0 || r.deg[n] < 0 || int(e) > len(r.ids) {
			return fmt.Errorf("node %d: row region [%d, %d) outside %d slots", n, lo, e, len(r.ids))
		}
		for j := lo; j < e; j++ {
			if owner[j] != InvalidNode {
				return fmt.Errorf("slot %d in the rows of nodes %d and %d", j, owner[j], n)
			}
			owner[j] = n
			owned++
		}
		for j := s; j < e; j++ {
			a := r.ids[j]
			if a == InvalidArc {
				if !r.blank[n] || !dirty[n] {
					return fmt.Errorf("node %d: blank slot %d in a row not marked dirty", n, j)
				}
				continue
			}
			if !g.NodeInUse(n) || !g.ArcInUse(a) || g.Tail(a) != n {
				return fmt.Errorf("node %d: slot %d holds arc %d (live %v, tail %d)", n, j, a, g.ArcInUse(a), g.Tail(a))
			}
			if e-g.arcPos[a] != j {
				return fmt.Errorf("arc %d in slot %d, position plane says %d", a, j, e-g.arcPos[a])
			}
			if seen[a] {
				return fmt.Errorf("arc %d sits in two row slots", a)
			}
			seen[a] = true
			rev := g.Reverse(a)
			if g.Cost(a) != -g.Cost(rev) || g.Resid(a) < 0 || g.Resid(rev) < 0 {
				return fmt.Errorf("arc pair %d/%d: costs %d/%d, residuals %d/%d",
					a, rev, g.Cost(a), g.Cost(rev), g.Resid(a), g.Resid(rev))
			}
		}
	}
	if holes := len(r.ids) - owned; holes != r.holes || 2*holes > len(r.ids) {
		return fmt.Errorf("%d of %d slots in no row, %d counted as holes", holes, len(r.ids), r.holes)
	}
	live := 0
	for i := range g.arcAlive {
		if g.arcAlive[i] {
			live++
			if !seen[i] {
				return fmt.Errorf("live arc %d sits in no row", i)
			}
		}
	}
	if live != 2*g.NumArcs() {
		return fmt.Errorf("%d live arc slots, NumArcs says %d pairs", live, g.NumArcs())
	}
	return nil
}

// TestQuickImbalanceConservation: pushes never change the total imbalance of
// the network (flow conservation is antisymmetric).
func TestQuickImbalanceConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, arcs := randomConnectedGraph(rng, 12, 30)
		before := sum(g.Imbalances())
		for i := 0; i < 50; i++ {
			a := arcs[rng.Intn(len(arcs))]
			if rng.Intn(2) == 0 {
				a = g.Reverse(a)
			}
			if r := g.Resid(a); r > 0 {
				g.Push(a, 1+int64(rng.Intn(int(r))))
			}
		}
		return sum(g.Imbalances()) == before
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// randomConnectedGraph builds a graph whose nodes all connect towards a sink
// so that pushes are usually possible.
func randomConnectedGraph(rng *rand.Rand, n, m int) (*Graph, []ArcID) {
	g := NewGraph(n, m)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(int64(rng.Intn(3)-1), KindOther)
	}
	arcs := make([]ArcID, 0, m)
	for i := 0; i < m; i++ {
		t := ids[rng.Intn(n)]
		h := ids[rng.Intn(n)]
		if t == h {
			continue
		}
		arcs = append(arcs, g.AddArc(t, h, int64(1+rng.Intn(9)), int64(rng.Intn(21)-10)))
	}
	if len(arcs) == 0 {
		arcs = append(arcs, g.AddArc(ids[0], ids[1], 5, 1))
	}
	return g, arcs
}
