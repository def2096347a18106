package solvers

import (
	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// MaxFlow routes as much supply as possible from surplus nodes (imbalance
// > 0) to deficit nodes (imbalance < 0) over the residual network, ignoring
// costs, using Dinic's algorithm with multi-source/multi-sink level graphs.
// It returns the amount of surplus it could not route (zero for feasible
// networks).
//
// Cycle canceling uses MaxFlow to obtain its initial feasible flow
// (paper §4: "the algorithm first computes a max-flow solution"). Both the
// BFS level pass and the blocking-flow DFS iterate the compact adjacency
// index; the DFS keeps a per-node position into the node's row (the classic
// current-arc optimization) instead of a linked-list cursor.
func (b *Buffers) MaxFlow(g *flow.Graph, opts *mcmf.Options) (unrouted int64, err error) {
	n := g.NodeIDBound()
	adj := g.Adjacency()
	pl := g.ArcPlanes()
	excess := g.ImbalancesInto(b.i64)
	b.i64 = excess
	level := fill(&b.level, n, -1)
	iter := fill(&b.iter, n, 0)
	queue := fill(&b.queue, n, 0)

	var totalSurplus int64
	for _, e := range excess {
		if e > 0 {
			totalSurplus += e
		}
	}

	for totalSurplus > 0 {
		if stopped(opts) {
			return totalSurplus, mcmf.ErrStopped
		}
		// BFS phase: level graph from all surplus nodes. Each node enters
		// the queue at most once, so a length-n slice with a head index
		// suffices.
		for i := range level {
			level[i] = -1
		}
		qlen := 0
		for i := range excess {
			if excess[i] > 0 { // positive excess implies a live node
				level[i] = 0
				queue[qlen] = flow.NodeID(i)
				qlen++
			}
		}
		reachedDeficit := false
		for qi := 0; qi < qlen; qi++ {
			u := queue[qi]
			if excess[u] < 0 {
				reachedDeficit = true
			}
			for _, a := range adj.Out(u) {
				if pl.Resid[a] <= 0 {
					continue
				}
				v := pl.Head[a]
				if level[v] < 0 {
					level[v] = level[u] + 1
					queue[qlen] = v
					qlen++
				}
			}
		}
		if !reachedDeficit {
			break
		}
		// DFS phase: blocking flow from every surplus node.
		for i := range iter {
			iter[i] = 0
		}
		var dfs func(u flow.NodeID, limit int64) int64
		dfs = func(u flow.NodeID, limit int64) int64 {
			if excess[u] < 0 {
				take := min(limit, -excess[u])
				excess[u] += take
				return take
			}
			var total int64
			row := adj.Out(u)
			for int(iter[u]) < len(row) && total < limit {
				a := row[iter[u]]
				if pl.Resid[a] > 0 {
					v := pl.Head[a]
					if level[v] == level[u]+1 {
						d := dfs(v, min(limit-total, pl.Resid[a]))
						if d > 0 {
							g.Push(a, d)
							total += d
							continue // same arc may carry more
						}
						level[v] = -1 // dead end
					}
				}
				iter[u]++
			}
			return total
		}
		var phasePushed int64
		for i := range excess {
			id := flow.NodeID(i)
			for excess[id] > 0 {
				pushed := dfs(id, excess[id])
				if pushed == 0 {
					break
				}
				excess[id] -= pushed
				phasePushed += pushed
			}
		}
		if phasePushed == 0 {
			break
		}
		totalSurplus -= phasePushed
	}
	return totalSurplus, nil
}
