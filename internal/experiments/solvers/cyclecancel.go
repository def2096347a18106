package solvers

import (
	"time"

	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// CycleCanceling implements Klein's cycle canceling algorithm (paper §4):
// first compute any feasible (max) flow, then repeatedly push flow around
// negative-cost directed cycles in the residual network until none remain
// (negative cycle optimality). Worst-case complexity O(N·M²·C·U), Table 1.
//
// Per Table 2, cycle canceling maintains feasibility at every iteration and
// works towards optimality. It is the simplest and slowest of Firmament's
// algorithms; it exists as a correctness oracle and as the Figure 7
// baseline.
type CycleCanceling struct {
	cycle []flow.ArcID // reusable buffer for negativeCycle results
	buf   Buffers
}

// NewCycleCanceling returns a cycle canceling solver.
func NewCycleCanceling() *CycleCanceling { return &CycleCanceling{} }

// Name implements mcmf.Solver.
func (c *CycleCanceling) Name() string { return "cycle-canceling" }

// Solve implements mcmf.Solver.
func (c *CycleCanceling) Solve(g *flow.Graph, opts *mcmf.Options) (mcmf.Result, error) {
	start := time.Now()
	g.ResetFlow()
	g.ResetPotentials()
	unrouted, err := c.buf.MaxFlow(g, opts)
	if err != nil {
		return mcmf.Result{}, err
	}
	if unrouted > 0 {
		return mcmf.Result{}, mcmf.ErrInfeasible
	}
	var iters int64
	for {
		if stopped(opts) {
			return mcmf.Result{}, mcmf.ErrStopped
		}
		cycle := c.buf.negativeCycle(g, opts, c.cycle)
		if cycle != nil {
			c.cycle = cycle // retain the grown buffer for the next search
		}
		if cycle == nil {
			if stopped(opts) {
				return mcmf.Result{}, mcmf.ErrStopped
			}
			break
		}
		bottleneck := g.Resid(cycle[0])
		for _, a := range cycle[1:] {
			if r := g.Resid(a); r < bottleneck {
				bottleneck = r
			}
		}
		for _, a := range cycle {
			g.Push(a, bottleneck)
		}
		iters++
		snapshot(opts, start)
	}
	return mcmf.Result{
		Algorithm:  c.Name(),
		Cost:       g.TotalCost(),
		Runtime:    time.Since(start),
		Iterations: iters,
	}, nil
}

// negativeCycle finds a directed negative-cost cycle in the residual network
// of g, returning the arcs of one such cycle appended to buf (resliced to
// empty first), or nil if none exists. Cycle canceling uses this as its
// core primitive (paper §4).
//
// The implementation is Bellman-Ford with parent pointers: if any distance
// still improves in round N, walking parents from the improved node must
// enter a cycle.
//
//firmament:hotpath
func (b *Buffers) negativeCycle(g *flow.Graph, opts *mcmf.Options, buf []flow.ArcID) []flow.ArcID {
	n := g.NodeIDBound()
	dist := fill(&b.i64, n, 0)
	parent := fill(&b.parent, n, flow.InvalidArc)
	pl := g.ArcPlanes()
	var witness flow.NodeID = flow.InvalidNode
	rounds := g.NumNodes()
	for round := 0; round <= rounds; round++ {
		witness = flow.InvalidNode
		var work int
		for a := 0; a < g.ArcIDBound(); a++ {
			arc := flow.ArcID(a)
			if !g.ArcInUse(arc) || pl.Resid[arc] <= 0 {
				continue
			}
			work++
			if work%stopCheckInterval == 0 && stopped(opts) {
				return nil
			}
			u := pl.Head[arc^1]
			v := pl.Head[arc]
			if d := dist[u] + pl.Cost[arc]; d < dist[v] {
				dist[v] = d
				parent[v] = arc
				witness = v
			}
		}
		if witness == flow.InvalidNode {
			return nil // converged: no negative cycle
		}
	}
	// witness is reachable from a negative cycle; walk N parents to land on
	// the cycle itself, then collect it.
	v := witness
	for i := 0; i < rounds; i++ {
		v = g.Tail(parent[v])
	}
	cycle := buf[:0]
	u := v
	for {
		a := parent[u]
		cycle = append(cycle, a)
		u = g.Tail(a)
		if u == v {
			break
		}
	}
	// Reverse into forward order (cosmetic; cancellation is order-agnostic).
	for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	return cycle
}
