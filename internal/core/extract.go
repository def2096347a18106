package core

import (
	"slices"

	"firmament/internal/cluster"
	"firmament/internal/flow"
)

// extractScratch is the reusable working storage of ExtractRound, indexed
// by node ID and by adjacency row slot. Every slice keeps its capacity
// across rounds and grows with amortised headroom, so steady-state
// extraction allocates nothing.
type extractScratch struct {
	tokens [][]cluster.MachineID
	// remaining holds, by the row slot of a node's reverse row entry, the
	// flow of the incoming arc behind it that no token has claimed yet.
	// Only the first seen[node] slots of a node's row hold this round's
	// values; the rest are stale and read from the residual plane instead.
	remaining []int64
	seen      []int32
	queued    []bool
	queue     []flow.NodeID

	// placed is the extraction's output table: the machine each task node
	// was placed on, InvalidMachine for an unscheduled task and for every
	// other node. gen stamps its contents; it moves whenever the table is
	// rewritten or a task node comes or goes, which is what makes a Round
	// holding an older stamp stale.
	placed []cluster.MachineID
	gen    uint64
}

func (ex *extractScratch) reset(nodeBound, slots int) {
	if cap(ex.tokens) < nodeBound {
		ex.tokens = append(ex.tokens[:cap(ex.tokens)], make([][]cluster.MachineID, nodeBound-cap(ex.tokens))...)
	}
	ex.tokens = ex.tokens[:nodeBound]
	for i := range ex.tokens {
		ex.tokens[i] = ex.tokens[i][:0]
	}
	ex.queued = slices.Grow(ex.queued[:0], nodeBound)[:nodeBound]
	clear(ex.queued)
	ex.seen = slices.Grow(ex.seen[:0], nodeBound)[:nodeBound]
	clear(ex.seen)
	ex.remaining = slices.Grow(ex.remaining[:0], slots)[:slots]
	ex.queue = ex.queue[:0]
	ex.clearPlaced(nodeBound)
}

// clearPlaced sizes the output table to nodeBound with every node
// unscheduled, and restamps it.
func (ex *extractScratch) clearPlaced(nodeBound int) {
	ex.placed = slices.Grow(ex.placed[:0], nodeBound)[:nodeBound]
	for i := range ex.placed {
		ex.placed[i] = cluster.InvalidMachine
	}
	ex.gen++
}

// ExtractRound implements the task placement extraction algorithm of paper
// Listing 1, generalized for arbitrary aggregator hierarchies: start from
// the machine nodes, which know how much flow they drain to the sink, and
// propagate "machine tokens" backwards along incoming arcs that carry flow
// until every token reaches a task node. Tasks that do not receive a token
// route their flow through an unscheduled aggregator and stay unscheduled.
//
// In the common case the algorithm touches every flow-carrying arc exactly
// once — a single pass over the graph (paper §6.3). All bookkeeping lives
// in slices indexed by node ID and row slot on the pinned scratch: an
// incoming arc is only ever visited while its head is popped, as the
// reverse entry in the head's adjacency row, so its unattributed flow is
// kept by that entry's slot, next to the slots the same pop reads. The
// first visit to a slot reads the flow straight off the residual plane (the
// flow on a forward in-arc is the residual of its reverse partner, which
// is exactly the row entry in hand), and nothing is hashed in the hot loop.
//
// The placements land in the scratch's node-indexed output table, which the
// returned Round references rather than copies: it is valid until the next
// extraction on gm or the next task arrival or departure folded into its
// graph — in a Scheduler's terms, until the next Schedule, UpdateOnly or
// ExtractPlacements. Applying or reading a stale Round panics.
//
// The extraction order is deterministic (machines visited in ID order,
// LIFO token propagation) because the resulting placements feed the
// journaled round record byte-for-byte.
//
//firmament:hotpath
//firmament:deterministic
func (gm *GraphManager) ExtractRound() Round {
	g := gm.g
	// Extraction runs right after a solve, so the adjacency rows are
	// already compacted; iterating them here is free and cache-friendly.
	adj := g.Adjacency()
	pl := g.ArcPlanes()
	ex := &gm.ext
	ex.reset(g.NodeIDBound(), adj.Slots())

	for mid, a := range gm.machineSink {
		if a == flow.InvalidArc || g.Flow(a) <= 0 {
			continue
		}
		f, mnode := g.Flow(a), g.Tail(a)
		ts := ex.tokens[mnode]
		for i := int64(0); i < f; i++ {
			ts = append(ts, cluster.MachineID(mid))
		}
		ex.tokens[mnode] = ts
		ex.queue = append(ex.queue, mnode)
		ex.queued[mnode] = true
	}

	for len(ex.queue) > 0 {
		node := ex.queue[len(ex.queue)-1]
		ex.queue = ex.queue[:len(ex.queue)-1]
		ex.queued[node] = false

		if _, isTask := gm.taskAt(node); isTask {
			// A task holds exactly one unit of flow; its (single) token is
			// its placement.
			if ts := ex.tokens[node]; len(ts) > 0 {
				ex.placed[node] = ts[0]
				ex.tokens[node] = ts[:0]
			}
			continue
		}
		ts := ex.tokens[node]
		if len(ts) == 0 {
			continue
		}
		// Visit incoming arcs: the in-arcs of node are the reverse partners
		// of its adjacency entries. Move as many tokens to each arc's
		// source as that arc carries unattributed flow. The visits stop
		// when the tokens run out, so the slots this round has written
		// are always a prefix of the row, seen[node] long.
		row := adj.Out(node)
		rem := ex.remaining[adj.Slot(node):][:len(row)]
		seen := int(ex.seen[node])
		i := 0
		for ; i < len(row) && len(ts) > 0; i++ {
			b := row[i]
			if g.IsForward(b) {
				continue // b is the forward arc out of node, not an in-arc
			}
			r := rem[i]
			if i >= seen {
				r = pl.Resid[b]
			}
			if r <= 0 {
				rem[i] = r
				continue
			}
			src := pl.Head[b] // tail of the incoming arc
			move := min(r, int64(len(ts)))
			ex.tokens[src] = append(ex.tokens[src], ts[len(ts)-int(move):]...)
			ts = ts[:len(ts)-int(move)]
			rem[i] = r - move
			if !ex.queued[src] {
				ex.queue = append(ex.queue, src)
				ex.queued[src] = true
			}
		}
		if i > seen {
			ex.seen[node] = int32(i)
		}
		ex.tokens[node] = ts
	}
	return Round{gm: gm, gen: ex.gen}
}

// ExtractPlacements is ExtractRound with its output copied into a new map
// of task → machine for every task the flow scheduled, for callers that
// keep placements across extractions. It allocates in proportion to the
// graph; the scheduling round itself uses ExtractRound.
func (gm *GraphManager) ExtractPlacements() map[cluster.TaskID]cluster.MachineID {
	gm.ExtractRound()
	placed := gm.ext.placed
	mappings := make(map[cluster.TaskID]cluster.MachineID, len(gm.taskNode))
	for n := range gm.tasks {
		if id := gm.tasks[n].id; id != noTask && placed[n] != cluster.InvalidMachine {
			mappings[id] = placed[n]
		}
	}
	return mappings
}

// placements returns the node-indexed table r's decisions are read from:
// the extraction's own for a Round that ExtractRound produced on gm, or the
// table refilled from a hand-built Round's Mappings.
func (gm *GraphManager) placements(r *Round) []cluster.MachineID {
	ex := &gm.ext
	if r.gm == nil {
		ex.clearPlaced(gm.g.NodeIDBound())
		for id, m := range r.Mappings {
			if n, ok := gm.taskNode[id]; ok {
				ex.placed[n] = m
			}
		}
		return ex.placed
	}
	if r.gm != gm {
		panic("core: Round applied to a scheduler other than the one that extracted it")
	}
	if r.gen != ex.gen {
		panic("core: stale Round: its scheduler has extracted again or folded a task arrival or departure since")
	}
	return ex.placed
}
