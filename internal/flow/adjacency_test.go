package flow

import (
	"slices"
	"testing"
)

// wantRow fails the test unless the compacted row of n lists exactly want.
func wantRow(t *testing.T, g *Graph, n NodeID, want ...ArcID) {
	t.Helper()
	adj := g.Adjacency()
	if got := adj.Out(n); !slices.Equal(got, want) || adj.Degree(n) != len(want) {
		t.Fatalf("node %d row %v (degree %d), want %v", n, got, adj.Degree(n), want)
	}
}

func TestAdjacencyMatchesListsAfterBuild(t *testing.T) {
	g := NewGraph(4, 4)
	a := g.AddNode(1, KindTask)
	b := g.AddNode(0, KindMachine)
	c := g.AddNode(-1, KindSink)
	ab := g.AddArc(a, b, 1, 2)
	bc := g.AddArc(b, c, 1, 0)
	ac := g.AddArc(a, c, 1, 5)
	// Newest first, reverse partners in their heads' rows.
	wantRow(t, g, a, ac, ab)
	wantRow(t, g, b, bc, ab^1)
	wantRow(t, g, c, ac^1, bc^1)
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyLazyUntilFirstCall(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindSink)
	ab := g.AddArc(a, b, 1, 1)
	ab2 := g.AddArc(a, b, 2, 2)
	g.RemoveArc(ab2)
	// The removal only blanks its slots; compaction waits for Adjacency.
	if g.adj.deg[a] != 2 || !g.adj.blank[a] || g.adj.ids[g.adj.start[a]] != InvalidArc {
		t.Fatalf("row of a: degree %d, blank %v; want the blanked slot still in place",
			g.adj.deg[a], g.adj.blank[a])
	}
	wantRow(t, g, a, ab)
	if len(g.adj.dirty) != 0 || g.adj.blank[a] || g.adj.blank[b] {
		t.Fatal("Adjacency left dirty rows behind")
	}
}

func TestAdjacencyMarksOnlyTouchedRowsDirty(t *testing.T) {
	g := NewGraph(0, 0)
	var ids []NodeID
	for i := 0; i < 8; i++ {
		ids = append(ids, g.AddNode(0, KindOther))
	}
	for i := 0; i < 7; i++ {
		g.AddArc(ids[i], ids[i+1], 1, 1)
	}
	extra := g.AddArc(ids[0], ids[3], 2, 2)
	if len(g.adj.dirty) != 0 {
		t.Fatalf("AddArc dirtied %d rows, want none (it prepends in place)", len(g.adj.dirty))
	}
	g.RemoveArc(extra)
	if !slices.Equal(g.adj.dirty, []NodeID{ids[0], ids[3]}) {
		t.Fatalf("RemoveArc dirtied rows %v, want tail and head %v", g.adj.dirty, []NodeID{ids[0], ids[3]})
	}
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
	g.Adjacency()
	if len(g.adj.dirty) != 0 {
		t.Fatal("Adjacency left dirty rows behind")
	}
}

func TestAdjacencyRowRelocationAndCompaction(t *testing.T) {
	g := NewGraph(0, 0)
	hub := g.AddNode(0, KindAggregator)
	sink := g.AddNode(0, KindSink)
	var model rowModel
	model.add(g, g.AddArc(hub, sink, 1, 0))
	// Grow the hub's and the sink's rows far beyond their slack (parallel
	// arcs) so they relocate repeatedly and holes accumulate until a
	// relocation repacks the backing array.
	relocations, repacks := 0, 0
	for batch := 0; batch < 12; batch++ {
		for i := 0; i < 4; i++ {
			start, holes := g.adj.start[hub], g.adj.holes
			model.add(g, g.AddArc(hub, sink, 1, int64(i)))
			if g.adj.start[hub] != start-1 {
				relocations++
			}
			if g.adj.holes < holes {
				repacks++
			}
			if g.adj.holes*2 > len(g.adj.ids) {
				t.Fatalf("%d holes in %d slots", g.adj.holes, len(g.adj.ids))
			}
		}
		if err := adjacencyConsistent(g); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := model.matches(g); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if relocations < 3 || repacks == 0 {
		t.Fatalf("hub row relocated %d times with %d repacks, want several and some", relocations, repacks)
	}

	// Fill the hub's free slots, then blank two of its arcs: the next add
	// compacts the row in place instead of relocating it.
	for g.adj.free[hub] > 0 {
		model.add(g, g.AddArc(hub, sink, 1, 0))
	}
	row := g.Out(hub)
	for _, a := range []ArcID{row[1], row[len(row)-2]} {
		model.remove(g, a)
		g.RemoveArc(a)
	}
	holes, end := g.adj.holes, g.adj.start[hub]+g.adj.deg[hub]
	model.add(g, g.AddArc(hub, sink, 1, 0))
	if g.adj.holes != holes || g.adj.start[hub]+g.adj.deg[hub] != end || g.adj.free[hub] != 1 {
		t.Fatalf("add after removals relocated the row (holes %d→%d, end %d→%d, free %d)",
			holes, g.adj.holes, end, g.adj.start[hub]+g.adj.deg[hub], g.adj.free[hub])
	}
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
	if err := model.matches(g); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyRemoveNodeEmptiesRow(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindMachine)
	c := g.AddNode(0, KindSink)
	g.AddArc(a, b, 1, 1)
	g.AddArc(b, c, 1, 1)
	g.RemoveNode(b)
	adj := g.Adjacency()
	if adj.Degree(b) != 0 {
		t.Fatalf("removed node still has %d row entries", adj.Degree(b))
	}
	if adj.Degree(a) != 0 || adj.Degree(c) != 0 {
		t.Fatal("neighbours of removed node retain dangling row entries")
	}
	// The freed ID's row is reused by the next node.
	if d := g.AddNode(0, KindMachine); d != b {
		t.Fatalf("node ID %d not reused (got %d)", b, d)
	}
	ca := g.AddArc(c, b, 1, 1)
	wantRow(t, g, b, ca^1)
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyNodeAddedAfterBuild(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindSink)
	ab := g.AddArc(a, b, 1, 1)
	g.Adjacency()
	// A node allocated beyond the current bound gets a row of its own.
	n := g.AddNode(0, KindMachine)
	nb := g.AddArc(n, b, 2, 3)
	wantRow(t, g, n, nb)
	wantRow(t, g, b, nb^1, ab^1)
	if err := adjacencyConsistent(g); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyCloneCopiesIndexAndDirtyState(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddNode(0, KindTask)
	b := g.AddNode(0, KindMachine)
	c := g.AddNode(0, KindSink)
	ab := g.AddArc(a, b, 1, 1)
	bc := g.AddArc(b, c, 1, 1)
	g.RemoveArc(ab) // leave blanked rows awaiting compaction in the source
	clone := g.CloneInto(nil)
	if err := adjacencyConsistent(clone); err != nil {
		t.Fatalf("clone rows: %v", err)
	}
	wantRow(t, clone, b, bc)
	// Compacting the clone must not compact the source's rows.
	if len(g.adj.dirty) == 0 || !g.adj.blank[a] {
		t.Fatal("source's pending blanks vanished after clone compaction")
	}
	wantRow(t, g, b, bc)
	// Diverge the clone; the source's rows must be unaffected.
	ac := clone.AddArc(a, c, 5, 5)
	wantRow(t, clone, a, ac)
	wantRow(t, g, a)
	wantRow(t, g, c, bc^1)
}
