package flow

import (
	"fmt"
	"hash/fnv"

	"firmament/internal/wal"
)

// This file serialises a Graph for the durable snapshots behind crash
// recovery. The encoding dumps the node and arc slices including dead
// entries, plus both free lists, so a decoded graph assigns exactly the
// same IDs to future AddNode/AddArc calls as the original would have. ID
// stability is what lets a restored scheduler keep using the
// GraphManager's persisted node maps and lets the incremental solver
// warm-start. Adjacency is written in linked-list form — each node's first
// arc, each arc's successor and predecessor in its row — which is the
// layout version 1 has always had; only the row order it spells matters,
// so dead arc slots carry InvalidArc links.

const graphSnapVersion = 1

// EncodeSnapshot appends the full graph state. The graph must be quiescent.
//
//firmament:deterministic
func (g *Graph) EncodeSnapshot(e *wal.Enc) {
	first, next, prev := g.rowLinks()
	e.U32(graphSnapVersion)
	e.U32(uint32(len(g.nodes)))
	for i := range g.nodes {
		n := &g.nodes[i]
		e.I64(int64(first[i]))
		e.I64(n.supply)
		e.I64(n.potential)
		e.U8(uint8(n.kind))
		e.Bool(n.inUse)
	}
	e.U32(uint32(len(g.arcHead)))
	for i := range g.arcHead {
		e.I64(int64(g.arcHead[i]))
		e.I64(int64(next[i]))
		e.I64(int64(prev[i]))
		e.I64(g.arcResid[i])
		e.I64(g.arcCost[i])
		e.Bool(g.arcAlive[i])
	}
	e.U32(uint32(len(g.freeNodes)))
	for _, id := range g.freeNodes {
		e.I64(int64(id))
	}
	e.U32(uint32(len(g.freeArcs)))
	for _, id := range g.freeArcs {
		e.I64(int64(id))
	}
	e.I64(int64(g.numNodes))
	e.I64(int64(g.numArcs))
}

// rowLinks spells the rows in the snapshot's linked-list form: each node's
// first arc, and each live arc's successor and predecessor in its row, with
// InvalidArc past a row's ends and for dead arcs.
func (g *Graph) rowLinks() (first, next, prev []ArcID) {
	first = make([]ArcID, len(g.nodes))
	next = make([]ArcID, len(g.arcHead))
	prev = make([]ArcID, len(g.arcHead))
	for i := range next {
		next[i], prev[i] = InvalidArc, InvalidArc
	}
	r := &g.adj
	for n := range g.nodes {
		first[n] = InvalidArc
		last := InvalidArc
		for _, a := range r.ids[r.start[n] : r.start[n]+r.deg[n]] {
			if a == InvalidArc {
				continue
			}
			if last == InvalidArc {
				first[n] = a
			} else {
				next[last] = a
			}
			prev[a] = last
			last = a
		}
	}
	return first, next, prev
}

// DecodeSnapshot rebuilds a graph from EncodeSnapshot bytes. Each node's
// row is laid out from its arc chain, so Out lists the same arcs in the
// same order as on the graph that was encoded. Predecessor links are
// redundant with the chains and are not read back.
//
//firmament:deterministic
func DecodeSnapshot(d *wal.Dec) (*Graph, error) {
	if v := d.U32(); v != graphSnapVersion {
		return nil, fmt.Errorf("flow: graph snapshot version %d (want %d)", v, graphSnapVersion)
	}
	g := &Graph{}
	nn := d.Len(27)
	g.nodes = make([]node, nn)
	first := make([]ArcID, nn)
	for i := range g.nodes {
		first[i] = ArcID(d.I64())
		g.nodes[i] = node{
			supply:    d.I64(),
			potential: d.I64(),
			kind:      NodeKind(d.U8()),
			inUse:     d.Bool(),
		}
	}
	na := d.Len(42)
	if na%2 != 0 {
		return nil, fmt.Errorf("flow: odd arc slot count %d", na)
	}
	g.arcHead = make([]NodeID, na)
	next := make([]ArcID, na)
	g.arcResid = make([]int64, na)
	g.arcCost = make([]int64, na)
	g.arcAlive = make([]bool, na)
	for i := 0; i < na; i++ {
		g.arcHead[i] = NodeID(d.I64())
		next[i] = ArcID(d.I64())
		d.I64() // predecessor link
		g.arcResid[i] = d.I64()
		g.arcCost[i] = d.I64()
		g.arcAlive[i] = d.Bool()
	}
	nf := d.Len(8)
	g.freeNodes = make([]NodeID, nf)
	for i := range g.freeNodes {
		g.freeNodes[i] = NodeID(d.I64())
	}
	af := d.Len(8)
	g.freeArcs = make([]ArcID, af)
	for i := range g.freeArcs {
		g.freeArcs[i] = ArcID(d.I64())
	}
	g.numNodes = int(d.I64())
	g.numArcs = int(d.I64())
	if err := d.Err(); err != nil {
		return nil, err
	}
	for i := range g.arcHead {
		if h := g.arcHead[i]; g.arcAlive[i] && (h < 0 || int(h) >= nn) {
			return nil, fmt.Errorf("flow: arc %d head %d out of range", i, h)
		}
	}
	if err := g.rowsFromChains(first, next); err != nil {
		return nil, err
	}
	return g, nil
}

// rowsFromChains lays out every node's row from its snapshot arc chain
// first[n], next[first[n]], ... The chains come from disk, so each must
// name only live arcs leaving a live node, no arc may sit on two chains or
// twice on one (which also stops a cyclic chain), and every live arc must
// sit on one.
func (g *Graph) rowsFromChains(first, next []ArcID) error {
	g.arcPos = make([]int32, len(g.arcHead))
	onChain := make([]bool, len(g.arcHead))
	r := &g.adj
	for n := range g.nodes {
		r.addRow()
		for a := first[n]; a != InvalidArc; a = next[a] {
			if a < 0 || int(a) >= len(g.arcHead) || !g.arcAlive[a] || onChain[a] ||
				!g.nodes[n].inUse || g.arcHead[a^1] != NodeID(n) {
				return fmt.Errorf("flow: node %d's arc chain is broken at arc %d", n, a)
			}
			onChain[a] = true
			r.ids = append(r.ids, a)
			r.deg[n]++
		}
		for i, a := range r.ids[r.start[n]:] {
			g.arcPos[a] = r.deg[n] - int32(i)
		}
	}
	for a, alive := range g.arcAlive {
		if alive && !onChain[a] {
			return fmt.Errorf("flow: live arc %d is on no node's chain", a)
		}
	}
	g.repackRows()
	return nil
}

// Fingerprint hashes the graph's structure and solver state: live nodes
// (supply, potential, kind), live arcs (endpoints, cost, capacity, flow),
// and the free lists (which determine future ID assignment). Equal
// fingerprints mean a solver run on either graph proceeds identically.
//
//firmament:deterministic
func (g *Graph) Fingerprint() uint64 {
	var e wal.Enc
	g.EncodeSnapshot(&e)
	h := fnv.New64a()
	h.Write(e.B)
	return h.Sum64()
}
