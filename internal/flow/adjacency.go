package flow

import "slices"

// This file holds the graph's only adjacency structure: one row of ArcIDs
// per node, each a region of a shared backing array, CSR-style. A row lists
// every arc leaving its node, forward and residual, newest first. The MCMF
// hot loops visit a node's out-arcs many times per solve, and a contiguous
// row lets the CPU pipeline and prefetch the arc records where a linked
// list would serialize them behind dependent loads (cs2 and LEMON store
// adjacency this way for the same reason).
//
// Row rules:
//
//   - A row keeps its free slots at the front, so AddArc prepends into the
//     slot just before the row's first arc: amortized O(1). A row with no
//     free slot is first compacted if it holds blanks, and otherwise
//     relocates to the end of the backing array with rowSlack free slots,
//     orphaning its old region. A relocation that would orphan more than
//     half the array repacks every row afresh instead.
//   - RemoveArc blanks the arc's slot (InvalidArc), found through the
//     per-arc position plane arcPos, and marks the row dirty. The other
//     arcs stay where they are. A position counts from the row's end,
//     which neither a prepend nor a move of the whole row shifts, so only
//     compaction rewrites positions, and only of the arcs it slides.
//   - Adjacency() compacts only the dirty rows, sliding their arcs toward
//     the row's end in order.
//   - CompactArcs renames every arc in every row through its map and then
//     repacks, so the rows come out laid afresh, each in its old order.
//
// So Out(n) always lists n's live arcs newest first, and a removal leaves
// the others in order: the order a prepend-on-add, unlink-on-remove linked
// list gives, which solvers, extraction and snapshots rely on for
// bit-identical results. Non-structural mutations (Push, SetArcCost,
// SetArcCapacity, SetSupply, SetPotential) never touch the rows.

// Adjacency is a read-only compact view of the residual adjacency, obtained
// from Graph.Adjacency. It stays valid until the next structural mutation
// (arc or node add/remove) on the owning graph; flow pushes and cost,
// capacity, supply or potential updates do not invalidate it. The view
// aliases graph-owned storage and must not be mutated.
type Adjacency struct {
	start []int32
	deg   []int32
	ids   []ArcID
}

// Out returns the arcs (forward and residual) leaving n as a contiguous
// slice, newest first. The slice aliases row storage: read-only, valid
// until the next structural mutation.
func (a *Adjacency) Out(n NodeID) []ArcID {
	s := a.start[n]
	e := s + a.deg[n]
	return a.ids[s:e:e]
}

// Degree returns the residual out-degree of n (forward plus reverse arcs).
func (a *Adjacency) Degree(n NodeID) int { return int(a.deg[n]) }

// Slot returns the row slot of Out(n)[0]: Out(n)[i] sits at slot
// Slot(n)+i. Every row entry of the view has its own slot below Slots(), so
// a caller can keep per-entry state in a slice indexed by slot rather than
// by ArcID. Slots, like the view, hold until the next structural mutation.
func (a *Adjacency) Slot(n NodeID) int { return int(a.start[n]) }

// Slots returns an exclusive upper bound on row slots.
func (a *Adjacency) Slots() int { return len(a.ids) }

// adjRows is the graph-embedded row state. Node n's region of ids is
// [start[n]-free[n], start[n]+deg[n]); its arcs occupy the last deg[n]
// slots, of which a dirty row may have blanked some.
type adjRows struct {
	start []int32  // per node: first used slot of the row
	deg   []int32  // per node: used slots, blanks included until compacted
	free  []int32  // per node: free slots in front of start
	ids   []ArcID  // backing storage shared by all rows
	spare []ArcID  // the previous backing array, reused by the next repack
	holes int      // slots orphaned by relocations
	blank []bool   // per node: the row holds blanked slots
	dirty []NodeID // nodes whose blank flag is set
}

// Adjacency returns the compact adjacency view, first compacting the rows
// that removals blanked since the last call: O(total length of those rows).
func (g *Graph) Adjacency() Adjacency {
	r := &g.adj
	for _, n := range r.dirty {
		if r.blank[n] {
			g.compactRow(n)
		}
	}
	r.dirty = r.dirty[:0]
	return Adjacency{start: r.start, deg: r.deg, ids: r.ids}
}

// Out returns the arcs (forward and residual) leaving n, newest first,
// compacting n's row first if removals blanked it. It serves callers that
// walk a few rows between mutations; solvers take the whole Adjacency view
// instead. The slice aliases row storage: read-only, valid until the next
// structural mutation.
func (g *Graph) Out(n NodeID) []ArcID {
	r := &g.adj
	if r.blank[n] {
		g.compactRow(n)
	}
	s := r.start[n]
	e := s + r.deg[n]
	return r.ids[s:e:e]
}

// addRow gives a newly allocated node ID an empty row with no slots; its
// first arc relocates it.
func (r *adjRows) addRow() {
	r.start = append(r.start, int32(len(r.ids)))
	r.deg = append(r.deg, 0)
	r.free = append(r.free, 0)
	r.blank = append(r.blank, false)
}

// prepend puts arc a at the front of n's row.
func (g *Graph) prepend(n NodeID, a ArcID) {
	r := &g.adj
	if r.free[n] == 0 {
		if r.blank[n] {
			g.compactRow(n)
		}
		if r.free[n] == 0 {
			g.relocateRow(n)
		}
	}
	r.start[n]--
	r.ids[r.start[n]] = a
	r.deg[n]++
	g.arcPos[a] = r.deg[n]
	r.free[n]--
}

// blankSlot removes arc a from n's row, leaving a blank in its slot.
func (g *Graph) blankSlot(n NodeID, a ArcID) {
	r := &g.adj
	r.ids[r.start[n]+r.deg[n]-g.arcPos[a]] = InvalidArc
	if !r.blank[n] {
		r.blank[n] = true
		r.dirty = append(r.dirty, n)
	}
}

// compactRow slides n's arcs over its blanks toward the row's end, keeping
// their order, and turns the blanks into free slots.
func (g *Graph) compactRow(n NodeID) {
	r := &g.adj
	s, e := r.start[n], r.start[n]+r.deg[n]
	w := e
	for i := e - 1; i >= s; i-- {
		if a := r.ids[i]; a != InvalidArc {
			w--
			if w != i {
				r.ids[w] = a
				g.arcPos[a] = e - w
			}
		}
	}
	r.free[n] += w - s
	r.start[n] = w
	r.deg[n] = e - w
	r.blank[n] = false
}

// rowSlack is the number of free slots a relocated or repacked row of deg
// arcs gets: doubling the room, so that a row built up arc by arc is
// copied about once per arc.
func rowSlack(deg int32) int32 { return deg + 2 }

// relocateRow moves n's row, which must hold no blanks, to the end of the
// backing array with fresh free slots in front of it, or repacks every row
// if the move would leave more than half the array orphaned.
func (g *Graph) relocateRow(n NodeID) {
	r := &g.adj
	r.holes += int(r.free[n] + r.deg[n])
	if r.holes*2 > len(r.ids) {
		g.repackRows()
		return
	}
	r.ids = g.appendRow(r.ids, n)
}

// repackRows lays every row out afresh in node order, dropping blanks and
// relocation holes. It writes into the array the previous repack left
// behind, so repacks reuse memory rather than allocate afresh.
func (g *Graph) repackRows() {
	r := &g.adj
	ids := r.spare[:0]
	for n := range r.start {
		if r.blank[n] {
			g.compactRow(NodeID(n))
		}
		ids = g.appendRow(ids, NodeID(n))
	}
	r.ids, r.spare = ids, r.ids
	r.holes = 0
}

// renumber rewrites every arc in every row through remap, leaving blanks
// blank; CompactArcs calls it before repacking.
func (r *adjRows) renumber(remap []ArcID) {
	for n, s := range r.start {
		row := r.ids[s : s+r.deg[n]]
		for i, a := range row {
			if a != InvalidArc {
				row[i] = remap[a]
			}
		}
	}
}

// appendRow appends n's row, which must hold no blanks, to ids behind
// rowSlack free slots and points the row at the copy; its arcs' positions,
// counted from the row's end, still hold. Free slots are never read, so
// they keep whatever ids held.
func (g *Graph) appendRow(ids []ArcID, n NodeID) []ArcID {
	r := &g.adj
	s, d := r.start[n], r.deg[n]
	slack := rowSlack(d)
	ids = slices.Grow(ids, int(slack+d))
	ns := int32(len(ids)) + slack
	ids = append(ids[:ns], r.ids[s:s+d]...)
	r.start[n], r.free[n] = ns, slack
	return ids
}

// copyFrom deep-copies src's rows into r, reusing r's storage, so that a
// clone and its source never share row state.
func (r *adjRows) copyFrom(src *adjRows) {
	r.start = append(r.start[:0], src.start...)
	r.deg = append(r.deg[:0], src.deg...)
	r.free = append(r.free[:0], src.free...)
	r.ids = append(r.ids[:0], src.ids...)
	r.holes = src.holes
	r.blank = append(r.blank[:0], src.blank...)
	r.dirty = append(r.dirty[:0], src.dirty...)
}
