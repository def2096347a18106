package flow

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzGraphChanges drives the graph through an arbitrary change sequence
// decoded from the fuzz input — node/arc adds and removes, cost and
// capacity changes, pushes, arc ID compaction — and asserts after every mutation that the
// structural invariants of the residual representation hold and that the
// validate.go checks stay consistent: total imbalance always equals total
// live supply (pushes are antisymmetric; removals take their flow with
// them), clones are faithful, and the feasibility/optimality checkers never
// panic or corrupt state.
//
// It also checks the adjacency rows against a per-node model list that
// prepends on add and deletes in place on remove: after every few
// mutations (so that compaction sees batches of blanked rows, not just
// single ones) and at the end of the sequence, Adjacency().Out must list,
// for every node, exactly the model's arcs in the model's order — including
// across Clone and CloneInto reuse cycles, which copy the rows together
// with the blanks still awaiting compaction.
//
// The seed corpus encodes the mutation patterns the unit tests exercise:
// build-up then teardown, capacity shrink below flow, hub-node removal,
// and push/cancel cycles.
func FuzzGraphChanges(f *testing.F) {
	// Seed corpus (op stream format: see decode below).
	f.Add([]byte{})                                                                 // empty
	f.Add([]byte{0, 3, 0, 2, 0, 1, 1, 0, 1, 5, 7, 1, 0, 2, 3, 0})                   // small build-up
	f.Add([]byte{0, 1, 0, 1, 1, 0, 1, 9, 4, 6, 0, 1, 2, 2, 3, 1})                   // push after add
	f.Add([]byte{0, 2, 0, 2, 1, 0, 1, 3, 2, 6, 0, 0, 5, 0, 1, 2, 0})                // capacity shrink below flow
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 4, 4, 1, 1, 2, 9, 9, 3, 0, 3, 0})       // hub removal
	f.Add([]byte{0, 5, 0, 4, 1, 0, 1, 8, 8, 6, 0, 6, 0, 6, 0, 2, 0, 1, 0, 1, 7, 7}) // push/cancel/re-add
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 250, 0, 1, 0, 1, 5, 3, 1, 1, 2, 5, 3, 1, 2, 3, 5, 3,
		1, 0, 3, 5, 3, 6, 0, 0, 2, 2, 1, 2, 0, 8, 1, 1, 3, 4, 1, 2, 0, 8}) // compact over blank rows, re-add, compact again

	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGraph(0, 0)
		var nodes []NodeID
		var arcs []ArcID // forward IDs of live arcs
		var model rowModel

		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}

		ops := 0
		checkInvariants := func(op string) {
			if err := adjacencyConsistent(g); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			// Check the rows against the model every few mutations,
			// leaving gaps so compaction processes multi-row batches of
			// blanks rather than one row at a time.
			ops++
			if ops%5 == 0 {
				if err := model.matches(g); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}
			// Check the SoA arc planes on a different cadence, so plane
			// checks see states where rows still hold blanks.
			if ops%3 == 0 {
				if err := planesMatchModel(g); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}
			if g.NumNodes() != len(nodes) || g.NumArcs() != len(arcs) {
				t.Fatalf("%s: live counts %d/%d, model %d/%d",
					op, g.NumNodes(), g.NumArcs(), len(nodes), len(arcs))
			}
			// Total imbalance must equal total live supply: pushes move
			// flow antisymmetrically and removed arcs take their flow with
			// them, so conservation can only be violated locally, never in
			// aggregate.
			var supply, imbalance int64
			for _, n := range nodes {
				supply += g.Supply(n)
			}
			for _, e := range g.Imbalances() {
				imbalance += e
			}
			if supply != imbalance {
				t.Fatalf("%s: total imbalance %d != total supply %d", op, imbalance, supply)
			}
			// The validators must run without panicking on any reachable
			// state (they may well report violations).
			_ = g.CheckFeasible()
			_ = g.TotalCost()
			_ = g.TotalSupply()
		}

		var remap []ArcID
		maxOps := 300
		for i := 0; i < len(data) && maxOps > 0; maxOps-- {
			switch op := next(&i) % 9; op {
			case 0: // add node
				supply := int64(int8(next(&i)))
				nodes = append(nodes, g.AddNode(supply, NodeKind(next(&i)%6)))
				checkInvariants("AddNode")
			case 1: // add arc
				if len(nodes) < 2 {
					continue
				}
				tail := nodes[int(next(&i))%len(nodes)]
				head := nodes[int(next(&i))%len(nodes)]
				if tail == head {
					continue
				}
				capacity := int64(next(&i) % 16)
				cost := int64(int8(next(&i)))
				a := g.AddArc(tail, head, capacity, cost)
				arcs = append(arcs, a)
				model.add(g, a)
				checkInvariants("AddArc")
			case 2: // remove arc
				if len(arcs) == 0 {
					continue
				}
				j := int(next(&i)) % len(arcs)
				tail := g.Tail(arcs[j])
				model.remove(g, arcs[j])
				g.RemoveArc(arcs[j])
				arcs = append(arcs[:j], arcs[j+1:]...)
				// Out compacts the one row it returns and leaves the
				// other blanked rows to the next Adjacency call.
				if row := g.Out(tail); !slices.Equal(row, model[tail]) {
					t.Fatalf("RemoveArc: Out(%d) = %v, model %v", tail, row, model[tail])
				}
				checkInvariants("RemoveArc")
			case 3: // remove node (and its incident arcs)
				if len(nodes) == 0 {
					continue
				}
				j := int(next(&i)) % len(nodes)
				n := nodes[j]
				nodes = append(nodes[:j], nodes[j+1:]...)
				kept := arcs[:0]
				for _, a := range arcs {
					if g.Tail(a) != n && g.Head(a) != n {
						kept = append(kept, a)
					}
				}
				arcs = kept
				model.removeNode(g, n)
				g.RemoveNode(n)
				checkInvariants("RemoveNode")
			case 4: // change arc cost (forward or reverse ID)
				if len(arcs) == 0 {
					continue
				}
				a := arcs[int(next(&i))%len(arcs)]
				if next(&i)%2 == 1 {
					a = g.Reverse(a)
				}
				g.SetArcCost(a, int64(int8(next(&i))))
				checkInvariants("SetArcCost")
			case 5: // change arc capacity (may strand flow: local imbalance)
				if len(arcs) == 0 {
					continue
				}
				a := arcs[int(next(&i))%len(arcs)]
				g.SetArcCapacity(a, int64(next(&i)%16))
				if f := g.Flow(a); f < 0 || f > g.Capacity(a) {
					t.Fatalf("SetArcCapacity left flow %d outside [0, %d]", f, g.Capacity(a))
				}
				checkInvariants("SetArcCapacity")
			case 6: // push within residual capacity
				if len(arcs) == 0 {
					continue
				}
				a := arcs[int(next(&i))%len(arcs)]
				if next(&i)%2 == 1 {
					a = g.Reverse(a)
				}
				if r := g.Resid(a); r > 0 {
					g.Push(a, 1+int64(next(&i))%r)
				}
				checkInvariants("Push")
			case 7: // change supply
				if len(nodes) == 0 {
					continue
				}
				g.SetSupply(nodes[int(next(&i))%len(nodes)], int64(int8(next(&i))))
				checkInvariants("SetSupply")
			case 8: // renumber the arcs densely, rows pending compaction or not
				before, bound := liveArcStates(g), g.ArcIDBound()
				remap = g.CompactArcs(remap)
				checkCompacted(t, g, remap, bound, before)
				for j := range arcs {
					arcs[j] = remap[arcs[j]]
				}
				model = model.renamed(remap)
				if err := model.matches(g); err != nil {
					t.Fatalf("CompactArcs: %v", err)
				}
				checkInvariants("CompactArcs")
			}
		}

		// The rows must agree with the model on the final state, whatever
		// the periodic checks above left uncompacted.
		if err := model.matches(g); err != nil {
			t.Fatalf("final state: %v", err)
		}
		if err := planesMatchModel(g); err != nil {
			t.Fatalf("final state: %v", err)
		}

		// Clone fidelity on the final state: structure, cost and imbalance
		// profile all survive a deep copy and a CloneInto reuse cycle.
		c := g.Clone()
		if err := adjacencyConsistent(c); err != nil {
			t.Fatalf("clone: %v", err)
		}
		if err := model.matches(c); err != nil {
			t.Fatalf("clone: %v", err)
		}
		if err := planesMatchModel(c); err != nil {
			t.Fatalf("clone: %v", err)
		}

		if c.TotalCost() != g.TotalCost() || c.NumNodes() != g.NumNodes() || c.NumArcs() != g.NumArcs() {
			t.Fatal("clone diverges from original")
		}
		gi, ci := g.Imbalances(), c.Imbalances()
		for i := range gi {
			if gi[i] != ci[i] {
				t.Fatalf("clone imbalance at node %d: %d != %d", i, ci[i], gi[i])
			}
		}
		if err := c.CopyFlowAndPotentialsFrom(g); err != nil {
			t.Fatalf("CopyFlowAndPotentialsFrom identical-topology clone: %v", err)
		}
		// ResetFlow must restore every imbalance to the node's supply.
		c.ResetFlow()
		for i, e := range c.Imbalances() {
			want := int64(0)
			if c.NodeInUse(NodeID(i)) {
				want = c.Supply(NodeID(i))
			}
			if e != want {
				t.Fatalf("after ResetFlow, node %d imbalance %d != supply %d", i, e, want)
			}
		}

		// CloneInto reuse cycle: copy into a reused destination, mutate the
		// source, re-copy. The destination's rows (including blanks copied
		// before compaction) must match the model, and the source must be
		// unaffected by the destination's compaction.
		reused := NewGraph(0, 0)
		for cycle := 0; cycle < 2; cycle++ {
			g.CloneInto(reused)
			if err := adjacencyConsistent(reused); err != nil {
				t.Fatalf("CloneInto cycle %d: %v", cycle, err)
			}
			if err := model.matches(reused); err != nil {
				t.Fatalf("CloneInto cycle %d: %v", cycle, err)
			}
			if err := planesMatchModel(reused); err != nil {
				t.Fatalf("CloneInto cycle %d: %v", cycle, err)
			}
			// Change the source between cycles (and blank a row when an
			// arc is left to remove) so the second copy carries different
			// rows and pending blanks into the reused destination.
			n1 := g.AddNode(1, KindTask)
			n2 := g.AddNode(-1, KindSink)
			model.add(g, g.AddArc(n1, n2, 3, 1))
			if len(arcs) > 0 {
				model.remove(g, arcs[0])
				g.RemoveArc(arcs[0])
				arcs = arcs[1:]
			}
		}
		if err := adjacencyConsistent(g); err != nil {
			t.Fatalf("source after CloneInto cycles: %v", err)
		}
		if err := model.matches(g); err != nil {
			t.Fatalf("source after CloneInto cycles: %v", err)
		}
	})
}

// planesMatchModel verifies that the structure-of-arrays arc planes agree
// with each other: paired arcs share liveness and carry negated costs, no
// residual is negative, and the ArcPlanes view aliases the live storage.
func planesMatchModel(g *Graph) error {
	bound := g.ArcIDBound()
	pl := g.ArcPlanes()
	if len(pl.Head) != bound || len(pl.Resid) != bound || len(pl.Cost) != bound {
		return fmt.Errorf("plane lengths %d/%d/%d != arc ID bound %d",
			len(pl.Head), len(pl.Resid), len(pl.Cost), bound)
	}
	for a := 0; a < bound; a += 2 {
		if g.ArcInUse(ArcID(a)) != g.ArcInUse(ArcID(a^1)) {
			return fmt.Errorf("arc pair %d/%d disagrees on liveness", a, a^1)
		}
		if !g.ArcInUse(ArcID(a)) {
			continue
		}
		if pl.Cost[a] != -pl.Cost[a^1] {
			return fmt.Errorf("arc %d cost %d, reverse cost %d (want negation)",
				a, pl.Cost[a], pl.Cost[a^1])
		}
		if pl.Resid[a] < 0 || pl.Resid[a^1] < 0 {
			return fmt.Errorf("arc pair %d/%d has negative residual %d/%d",
				a, a^1, pl.Resid[a], pl.Resid[a^1])
		}
		if pl.Head[a] != g.Head(ArcID(a)) || pl.Resid[a] != g.Resid(ArcID(a)) || pl.Cost[a] != g.Cost(ArcID(a)) {
			return fmt.Errorf("plane view diverges from accessors at arc %d", a)
		}
	}
	return nil
}

// rowModel is the adjacency rows' reference: per node, the arcs leaving it
// in the order a prepend-on-add, delete-in-place-on-remove list holds them.
type rowModel [][]ArcID

// add records the new arc pair fwd: fwd leaves its tail, its partner its
// head, each at the front of the row.
func (m *rowModel) add(g *Graph, fwd ArcID) {
	m.prepend(g.Tail(fwd), fwd)
	m.prepend(g.Head(fwd), fwd^1)
}

func (m *rowModel) prepend(n NodeID, a ArcID) {
	for int(n) >= len(*m) {
		*m = append(*m, nil)
	}
	(*m)[n] = append([]ArcID{a}, (*m)[n]...)
}

// remove deletes the live arc pair of a from both rows; call it before
// g.RemoveArc, while the pair's endpoints are still readable.
func (m *rowModel) remove(g *Graph, a ArcID) {
	fwd := a &^ 1
	m.delete(g.Tail(fwd), fwd)
	m.delete(g.Head(fwd), fwd^1)
}

func (m *rowModel) delete(n NodeID, a ArcID) {
	row := (*m)[n]
	for i, b := range row {
		if b == a {
			(*m)[n] = append(row[:i:i], row[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("model: arc %d not in node %d's row", a, n))
}

// removeNode deletes every pair incident to the live node n; call it
// before g.RemoveNode.
func (m *rowModel) removeNode(g *Graph, n NodeID) {
	if int(n) >= len(*m) {
		return
	}
	for len((*m)[n]) > 0 {
		m.remove(g, (*m)[n][0])
	}
}

// matches verifies that Adjacency().Out lists, for every node ID (live or
// dead) below the bound, exactly the model's arcs in the model's order.
func (m rowModel) matches(g *Graph) error {
	adj := g.Adjacency()
	for i := 0; i < g.NodeIDBound(); i++ {
		var want []ArcID
		if i < len(m) {
			want = m[i]
		}
		row := adj.Out(NodeID(i))
		if len(row) != len(want) || adj.Degree(NodeID(i)) != len(want) {
			return fmt.Errorf("node %d: row %v, model %v", i, row, want)
		}
		for j := range row {
			if row[j] != want[j] {
				return fmt.Errorf("node %d: row %v, model %v", i, row, want)
			}
		}
	}
	return nil
}
