package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// arcState is what an arc pair carries, by which compaction must not change
// anything but the name.
type arcState struct {
	tail, head           NodeID
	flow, capacity, cost int64
}

func liveArcStates(g *Graph) map[ArcID]arcState {
	out := make(map[ArcID]arcState)
	g.ForwardArcs(func(a ArcID) {
		out[a] = arcState{g.Tail(a), g.Head(a), g.Flow(a), g.Capacity(a), g.Cost(a)}
	})
	return out
}

// renamed returns the model with every arc renamed through remap.
func (m rowModel) renamed(remap []ArcID) rowModel {
	out := make(rowModel, len(m))
	for n, row := range m {
		for _, a := range row {
			out[n] = append(out[n], remap[a])
		}
	}
	return out
}

// checkCompacted verifies one CompactArcs call against the state before it:
// the map numbers the live pairs densely in increasing old-ID order, keeps
// forward arcs even and partners paired, sends dead slots to InvalidArc,
// and every renamed arc carries its old tail, head, flow, capacity and cost.
func checkCompacted(t *testing.T, g *Graph, remap []ArcID, bound int, before map[ArcID]arcState) {
	t.Helper()
	if len(remap) != bound {
		t.Fatalf("remap has %d entries for an ID bound of %d", len(remap), bound)
	}
	next := ArcID(0)
	for a := 0; a < bound; a += 2 {
		old := ArcID(a)
		st, live := before[old]
		if !live {
			if remap[a] != InvalidArc || remap[a+1] != InvalidArc {
				t.Fatalf("dead pair %d renamed to %d/%d", a, remap[a], remap[a+1])
			}
			continue
		}
		if remap[a] != next || remap[a+1] != next^1 {
			t.Fatalf("live pair %d renamed to %d/%d, want %d/%d", a, remap[a], remap[a+1], next, next^1)
		}
		next += 2
		got := arcState{g.Tail(remap[a]), g.Head(remap[a]), g.Flow(remap[a]), g.Capacity(remap[a]), g.Cost(remap[a])}
		if got != st {
			t.Fatalf("arc %d → %d: %+v, was %+v", a, remap[a], got, st)
		}
		if g.Cost(remap[a]^1) != -st.cost || g.Resid(remap[a]^1) != st.flow {
			t.Fatalf("arc %d → %d: reverse partner lost its cost or flow", a, remap[a])
		}
	}
	if g.ArcIDBound() != int(next) || g.NumArcs() != int(next)/2 || len(before) != g.NumArcs() {
		t.Fatalf("after compaction: bound %d, %d arcs, %d renamed, %d before",
			g.ArcIDBound(), g.NumArcs(), next/2, len(before))
	}
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
	if err := planesMatchModel(g); err != nil {
		t.Fatal(err)
	}
}

// TestCompactArcs builds a burst of arcs, drains most of it (with blanked
// rows still awaiting compaction and freed IDs partly reused), compacts,
// and checks that every row lists the renamed arcs of its old row in the
// same order, that every arc keeps its flow, capacity and cost, and that
// the graph stays correct through further adds, removals and a second
// compaction into the same map storage.
func TestCompactArcs(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(0, 0)
		var model rowModel
		var nodes []NodeID
		var arcs []ArcID
		addArc := func() {
			tail, head := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if tail == head {
				return
			}
			a := g.AddArc(tail, head, int64(rng.Intn(8)), int64(rng.Intn(41)-20))
			if r := g.Resid(a); r > 0 {
				g.Push(a, 1+rng.Int63n(r))
			}
			model.add(g, a)
			arcs = append(arcs, a)
		}
		removeArc := func() {
			j := rng.Intn(len(arcs))
			model.remove(g, arcs[j])
			g.RemoveArc(arcs[j])
			arcs = slices.Delete(arcs, j, j+1)
		}
		for i := 0; i < 40; i++ {
			nodes = append(nodes, g.AddNode(int64(rng.Intn(5)-2), KindOther))
		}
		for i := 0; i < 600; i++ { // the burst
			addArc()
		}
		for len(arcs) > 120 { // the drain
			removeArc()
		}
		for i := 0; i < 3; i++ { // a node leaves, with its arcs
			j := rng.Intn(len(nodes))
			n := nodes[j]
			nodes = slices.Delete(nodes, j, j+1)
			arcs = slices.DeleteFunc(arcs, func(a ArcID) bool { return g.Tail(a) == n || g.Head(a) == n })
			model.removeNode(g, n)
			g.RemoveNode(n)
		}
		for i := 0; i < 30; i++ { // freed IDs reused, out of ID order in the rows
			addArc()
		}
		if seed%2 == 0 {
			g.Adjacency() // half the seeds compact with no blank rows left
		}

		before, bound := liveArcStates(g), g.ArcIDBound()
		im := g.Imbalances()
		remap := g.CompactArcs(nil)
		checkCompacted(t, g, remap, bound, before)
		model = model.renamed(remap)
		for i := range arcs {
			arcs[i] = remap[arcs[i]]
		}
		if err := model.matches(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(g.Imbalances(), im) {
			t.Fatalf("seed %d: imbalances changed", seed)
		}

		// The free list is empty, so the next pair appends at the bound.
		nextID := ArcID(g.ArcIDBound())
		tail, head := nodes[0], nodes[1]
		if a := g.AddArc(tail, head, 3, 1); a != nextID {
			t.Fatalf("seed %d: AddArc after compaction got %d, want %d", seed, a, nextID)
		} else {
			model.add(g, a)
			arcs = append(arcs, a)
		}
		for i := 0; i < 60; i++ {
			if rng.Intn(2) == 0 {
				addArc()
			} else {
				removeArc()
			}
		}
		if err := adjacencyConsistent(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := model.matches(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		before, bound = liveArcStates(g), g.ArcIDBound()
		again := g.CompactArcs(remap)
		if cap(remap) >= bound && &again[0] != &remap[0] {
			t.Fatalf("seed %d: second compaction did not reuse the map's storage", seed)
		}
		checkCompacted(t, g, again, bound, before)
		if err := model.renamed(again).matches(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReplicaSharesStructure checks the replica contract: residuals and
// node records are private in both directions, the structure is shared, a
// structural change on the replica panics, and reusing a replica for a deep
// copy never writes into the graph it aliased.
func TestReplicaSharesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, arcs := randomConnectedGraph(rng, 10, 40)
	g.RemoveArc(arcs[0]) // a blank row: ReplicaInto compacts it first
	a := arcs[1]
	g.SetPotential(g.Tail(a), 5)

	r := g.ReplicaInto(nil)
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
	if len(g.adj.dirty) != 0 || len(r.adj.dirty) != 0 {
		t.Fatal("replica taken with rows still awaiting compaction")
	}
	for n := 0; n < g.NodeIDBound(); n++ {
		if !slices.Equal(r.Out(NodeID(n)), g.Out(NodeID(n))) {
			t.Fatalf("node %d: replica row %v, source row %v", n, r.Out(NodeID(n)), g.Out(NodeID(n)))
		}
	}
	if r.TotalCost() != g.TotalCost() || r.NumArcs() != g.NumArcs() || r.NumNodes() != g.NumNodes() {
		t.Fatal("replica diverges from its source")
	}

	resid, pot := g.Resid(a), g.Potential(g.Tail(a))
	r.ResetFlow()
	r.SetPotential(g.Tail(a), 9)
	r.SetSupply(g.Tail(a), 3)
	if rr := r.Resid(a); rr > 0 {
		r.Push(a, rr)
	}
	if g.Resid(a) != resid || g.Potential(g.Tail(a)) != pot {
		t.Fatal("a change on the replica reached its source")
	}
	rresid := r.Resid(a)
	if ga := g.Resid(a); ga > 0 {
		g.Push(a, ga)
	} else {
		g.Push(a^1, g.Resid(a^1)) // capacity is at least 1: one side has room
	}
	if r.Resid(a) != rresid {
		t.Fatal("a push on the source reached the replica")
	}

	for name, op := range map[string]func(){
		"AddNode":     func() { r.AddNode(0, KindOther) },
		"AddArc":      func() { r.AddArc(g.Tail(a), g.Head(a), 1, 1) },
		"RemoveArc":   func() { r.RemoveArc(a) },
		"RemoveNode":  func() { r.RemoveNode(g.Tail(a)) },
		"SetArcCost":  func() { r.SetArcCost(a, 4) },
		"CompactArcs": func() { r.CompactArcs(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a replica did not panic", name)
				}
			}()
			op()
		}()
	}

	// A deep copy into the replica must leave the aliased source intact.
	headsBefore := slices.Clone(g.arcHead)
	other, _ := randomConnectedGraph(rng, 6, 12)
	other.CloneInto(r)
	if !slices.Equal(g.arcHead, headsBefore) {
		t.Fatal("CloneInto a replica wrote through into its source")
	}
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
	if err := adjacencyConsistent(r); err != nil {
		t.Fatal(err)
	}
	r.AddNode(0, KindOther) // a deep copy owns its structure again
}

// TestSteadyStateReplicaAllocations pins ReplicaInto at zero allocations
// once its buffers have the source's size: the solver pool takes a replica
// every racing round.
func TestSteadyStateReplicaAllocations(t *testing.T) {
	g, _ := randomConnectedGraph(rand.New(rand.NewSource(3)), 200, 2000)
	r := g.ReplicaInto(nil)
	if got := testing.AllocsPerRun(20, func() { g.ReplicaInto(r) }); got != 0 {
		t.Fatalf("ReplicaInto allocates %.1f objects per call, want 0", got)
	}
}
