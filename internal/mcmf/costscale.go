package mcmf

import (
	"fmt"
	"time"

	"firmament/internal/flow"
)

// CostScaling implements the Goldberg–Tarjan cost scaling algorithm
// (paper §4, [17–19]): push-relabel iterations maintain feasibility and
// epsilon-optimality (Table 2), with epsilon divided by an alpha factor
// after every refine until 1/(N+1)-optimality — equivalent to exact
// optimality — is reached. Worst-case complexity O(N²·M·log(N·C)), Table 1.
//
// This is the algorithm behind Quincy's cs2 solver; running Firmament
// restricted to from-scratch cost scaling reproduces the Quincy baseline
// (paper §7.1). The incremental mode warm-starts from the previous
// solution, restarting epsilon at the largest reduced-cost violation that
// the latest graph changes introduced rather than at the global maximum
// cost (paper §5.2, §6.2).
//
// All adjacency iteration goes through the graph's compact index
// (flow.Graph.Adjacency): the discharge loop visits each node's out-arcs
// many times per refine, and iterating a contiguous row beats chasing the
// linked arc list exactly where this solver spends its time.
type CostScaling struct {
	// scale multiplies arc costs internally so that a flow that is
	// 1-optimal in scaled costs is optimal in original costs. It must be
	// > N; it persists across incremental runs because stored potentials
	// are in scaled units.
	scale int64

	adj      flow.Adjacency
	excess   []int64
	cur      []int32 // per-node position in the node's adjacency row
	relabels []int32
	queue    []flow.NodeID
	inQueue  []bool
	dist     []int64
	pq       distHeap
}

// NewCostScaling returns a cost scaling solver.
func NewCostScaling() *CostScaling { return &CostScaling{} }

// Name implements Solver.
func (c *CostScaling) Name() string { return "cost-scaling" }

// Scale returns the internal cost multiplier in effect (exported for tests
// and for PriceRefine callers, which must present potentials in the same
// scaled domain).
func (c *CostScaling) Scale() int64 { return c.scale }

// SetScale restores a persisted cost multiplier. Only the snapshot
// recovery path may call this, and only together with restoring the graph
// potentials that were stored in that scaled domain; mismatched scale and
// potentials void the solver's epsilon-optimality reasoning.
func (c *CostScaling) SetScale(s int64) { c.scale = s }

// ScaleFor returns the cost multiplier the solver will use for g,
// establishing it if not yet set. The solver pool price-refines winning
// solutions in this scaled domain so the next incremental run can start
// from a small epsilon (paper §6.2).
func (c *CostScaling) ScaleFor(g *flow.Graph) int64 {
	c.ensureScale(g, false)
	return c.scale
}

// ensureScale (re)establishes the internal cost multiplier. Potentials
// stored on the graph are in scaled units, so the scale may only change
// when prior potentials are being discarded.
func (c *CostScaling) ensureScale(g *flow.Graph, fresh bool) {
	need := int64(g.NumNodes()) + 1
	if c.scale >= need && !fresh {
		return
	}
	// Headroom so that modest growth between incremental runs does not
	// force a rescale.
	c.scale = 16
	for c.scale < 2*need {
		c.scale *= 2
	}
}

// Solve implements Solver: a from-scratch run that discards prior flow and
// potentials.
func (c *CostScaling) Solve(g *flow.Graph, opts *Options) (Result, error) {
	start := time.Now()
	g.ResetFlow()
	g.ResetPotentials()
	c.ensureScale(g, true)
	eps := c.maxScaledCost(g)
	return c.run(g, eps, start, opts)
}

// SolveIncremental implements IncrementalSolver: it keeps the flow and
// potentials already on g and restarts epsilon at the largest reduced-cost
// violation present, falling back to a full restart only if the violation
// is as large as the maximum cost anyway.
func (c *CostScaling) SolveIncremental(g *flow.Graph, changes *flow.ChangeSet, opts *Options) (Result, error) {
	start := time.Now()
	c.ensureScale(g, false)
	if c.scale <= int64(g.NumNodes()) {
		// The graph outgrew the scale the stored potentials use; their
		// epsilon guarantees are void, so restart scaled state.
		g.ResetPotentials()
		c.ensureScale(g, true)
		eps := c.maxScaledCost(g)
		res, err := c.run(g, eps, start, opts)
		res.FullRestart = true
		return res, err
	}
	eps := c.maxViolation(g)
	if eps < 1 {
		eps = 1
	}
	if m := c.maxScaledCost(g); eps > m {
		eps = m
	}
	return c.run(g, eps, start, opts)
}

// run performs refine passes from eps down to 1.
func (c *CostScaling) run(g *flow.Graph, eps int64, start time.Time, opts *Options) (Result, error) {
	c.grow(g.NodeIDBound())
	c.adj = g.Adjacency() // repair once; structure is fixed for the solve
	alpha := opts.alpha()
	if eps < 1 {
		eps = 1
	}
	var iters int64
	for {
		if err := c.refine(g, eps, opts); err != nil {
			return Result{}, err
		}
		iters++
		opts.snapshot(start)
		if eps == 1 {
			break
		}
		// Jump the epsilon schedule past tiers the flow already satisfies:
		// refine(eps) guarantees eps-optimality, but the flow it leaves is
		// often far better, and the worst residual violation is exactly the
		// epsilon the next tier must repair. The O(M) scan costs the same
		// as the saturation pass of a single skipped tier, so any skip is a
		// net win (cs2 applies the same check between scaling phases). A
		// zero violation means the feasible flow is already 0-optimal —
		// optimal — and the remaining tiers are no-ops.
		v := c.maxViolation(g)
		if v == 0 {
			break
		}
		eps /= alpha
		if v < eps {
			eps = v
		}
		if eps < 1 {
			eps = 1
		}
	}
	return Result{
		Algorithm:  c.Name(),
		Cost:       g.TotalCost(),
		Runtime:    time.Since(start),
		Iterations: iters,
	}, nil
}

// refine converts the current pseudoflow into a feasible eps-optimal flow:
// it saturates every residual arc with negative reduced cost, then
// discharges nodes with positive excess via FIFO push-relabel, where an arc
// is admissible if its scaled reduced cost is negative and relabeling
// raises a node's potential just enough to create an admissible arc.
//
//firmament:hotpath
func (c *CostScaling) refine(g *flow.Graph, eps int64, opts *Options) error {
	bound := g.NodeIDBound()
	pl := g.ArcPlanes()
	// Saturate arcs violating eps-optimality (standard refine starts from a
	// 0-optimal pseudoflow w.r.t. current potentials). One pass over the
	// pairs: the partners' reduced costs are negations of each other, so at
	// most one direction can violate and both plane entries sit on the same
	// cache lines.
	for a := 0; a < g.ArcIDBound(); a += 2 {
		fwd := flow.ArcID(a)
		if !g.ArcInUse(fwd) {
			continue
		}
		rc := c.scaledReducedCost(g, fwd)
		if rc < 0 {
			if r := pl.Resid[fwd]; r > 0 {
				g.Push(fwd, r)
			}
		} else if rc > 0 {
			rev := fwd ^ 1
			if r := pl.Resid[rev]; r > 0 {
				g.Push(rev, r)
			}
		}
	}
	c.excess = g.ImbalancesInto(c.excess)
	c.queue = c.queue[:0]
	for i := 0; i < bound; i++ {
		c.inQueue[i] = false
		c.relabels[i] = 0
		c.cur[i] = 0
	}
	for i := 0; i < bound; i++ {
		if c.excess[i] > 0 && g.NodeInUse(flow.NodeID(i)) {
			c.queue = append(c.queue, flow.NodeID(i))
			c.inQueue[i] = true
		}
	}
	// Goldberg's price update heuristic (as in cs2): reprice so that every
	// excess node has an admissible path towards a deficit. Run once up
	// front — essential for incremental warm starts, where a small epsilon
	// would otherwise cross large potential gaps one relabel at a time —
	// and again whenever relabels accumulate.
	if err := c.priceUpdate(g, eps); err != nil {
		return err
	}
	relabelBudget := 8*g.NumNodes() + 64
	relabelLimit := int32(64*g.NumNodes() + 4096)
	relabelsSinceUpdate := 0
	var work int
	for qi := 0; qi < len(c.queue); qi++ {
		u := c.queue[qi]
		c.inQueue[u] = false
		if c.excess[u] <= 0 {
			continue
		}
		// Discharge u by walking its compact adjacency row. pi(u) changes
		// only on relabel or price update, so hold it in a register across
		// the row scan instead of reloading the node record per arc.
		row := c.adj.Out(u)
		piU := g.Potential(u)
		for c.excess[u] > 0 {
			work++
			if work%stopCheckInterval == 0 && opts.stopped() {
				return ErrStopped
			}
			i := c.cur[u]
			if int(i) >= len(row) {
				// Relabel: raise potential to create an admissible arc.
				newPi, ok := c.relabelTarget(g, u, eps)
				if !ok {
					return ErrInfeasible
				}
				g.SetPotential(u, newPi)
				piU = newPi
				c.cur[u] = 0
				c.relabels[u]++
				if c.relabels[u] > relabelLimit {
					//firmament:ignore hotalloc infeasibility bailout: fires at most once per solve, never in steady state
					return fmt.Errorf("mcmf: cost scaling relabeled node %d more than %d times: %w",
						u, relabelLimit, ErrInfeasible)
				}
				relabelsSinceUpdate++
				if relabelsSinceUpdate > relabelBudget {
					if err := c.priceUpdate(g, eps); err != nil {
						return err
					}
					for j := 0; j < bound; j++ {
						c.cur[j] = 0
					}
					relabelsSinceUpdate = 0
					piU = g.Potential(u)
				}
				continue
			}
			a := row[i]
			if r := pl.Resid[a]; r > 0 && pl.Cost[a]*c.scale-piU+g.Potential(pl.Head[a]) < 0 {
				v := pl.Head[a]
				amt := min64(c.excess[u], r)
				g.Push(a, amt)
				c.excess[u] -= amt
				wasPositive := c.excess[v] > 0
				c.excess[v] += amt
				if !wasPositive && c.excess[v] > 0 && !c.inQueue[v] {
					c.queue = append(c.queue, v)
					c.inQueue[v] = true
				}
				continue
			}
			c.cur[u] = i + 1
		}
	}
	// Compact the processed prefix occasionally would matter for memory on
	// huge runs; the queue is rebuilt per refine, so growth is bounded.
	return nil
}

// priceUpdate implements Goldberg's set-relabel heuristic [17]: a
// multi-source Dijkstra from all deficit nodes backwards over residual
// arcs, with non-negative integer lengths l(a) = rc(a)/eps + 1 for rc >= 0
// and 0 for admissible arcs. Raising pi(v) by dist(v)*eps preserves
// eps-optimality and turns every shortest path from an excess node into an
// admissible path, collapsing what would otherwise be thousands of
// single-eps relabels. An excess node that cannot reach any deficit proves
// the problem infeasible.
//
//firmament:hotpath
func (c *CostScaling) priceUpdate(g *flow.Graph, eps int64) error {
	const inf = int64(1) << 62
	bound := g.NodeIDBound()
	pl := g.ArcPlanes()
	for i := 0; i < bound; i++ {
		c.dist[i] = inf
	}
	c.pq.reset()
	excessLeft := 0
	for i := 0; i < bound; i++ {
		if !g.NodeInUse(flow.NodeID(i)) {
			continue
		}
		if c.excess[i] < 0 {
			c.dist[i] = 0
			c.pq.push(flow.NodeID(i), 0)
		} else if c.excess[i] > 0 {
			excessLeft++
		}
	}
	if excessLeft == 0 || c.pq.size() == 0 {
		return nil
	}
	// The search can stop as soon as every excess node is finalized (cs2's
	// early termination): only their distances matter, and clamping every
	// non-finalized node to the cut distance D keeps the invariant
	// dist(u) <= dist(v) + l(u->v) across finalized/unfinalized boundaries
	// — pops are nondecreasing, so an unfinalized u has tentative distance
	// >= D, which the relaxation of each finalized v already bounded by
	// dist(v) + l.
	cut := int64(-1)
	for c.pq.size() > 0 {
		nd := c.pq.pop()
		v := nd.node
		if nd.dist > c.dist[v] {
			continue
		}
		if c.excess[v] > 0 {
			excessLeft--
			if excessLeft == 0 {
				cut = nd.dist
				break
			}
		}
		// Relax predecessors: the in-arcs of v are the partners of v's
		// out-row entries. rc(in) for in-arc u->v is cost(in) - pi(u) + pi(v);
		// pi(v) is loop-invariant, so hoist it out of the row scan.
		piV := g.Potential(v)
		for _, b := range c.adj.Out(v) {
			in := b ^ 1
			if pl.Resid[in] <= 0 {
				continue
			}
			u := pl.Head[b] // tail of the in-arc
			rc := pl.Cost[in]*c.scale - g.Potential(u) + piV
			var l int64
			if rc >= 0 {
				l = rc/eps + 1
			}
			if d := nd.dist + l; d < c.dist[u] {
				c.dist[u] = d
				c.pq.push(u, d)
			}
		}
	}
	if cut < 0 {
		// The queue drained with excess nodes unreached: no residual path
		// from them to any deficit. Use the largest finalized distance as
		// the ceiling (a source always finalizes at 0, so cut ends >= 0);
		// the unreached excess below proves infeasibility.
		for i := 0; i < bound; i++ {
			if c.dist[i] != inf && c.dist[i] > cut {
				cut = c.dist[i]
			}
		}
	}
	var infeasible bool
	for i := 0; i < bound; i++ {
		if !g.NodeInUse(flow.NodeID(i)) {
			continue
		}
		d := c.dist[i]
		if d > cut {
			if d == inf && c.excess[i] > 0 {
				infeasible = true
			}
			d = cut
		}
		if d > 0 {
			id := flow.NodeID(i)
			g.SetPotential(id, g.Potential(id)+d*eps)
		}
	}
	if infeasible {
		return ErrInfeasible
	}
	return nil
}

// relabelTarget computes the smallest potential increase for u that creates
// an admissible arc: pi(u) = min over residual out-arcs (pi(head) + scaled
// cost) + eps.
//
//firmament:hotpath
func (c *CostScaling) relabelTarget(g *flow.Graph, u flow.NodeID, eps int64) (int64, bool) {
	const unset = int64(1) << 62
	best := unset
	pl := g.ArcPlanes()
	for _, a := range c.adj.Out(u) {
		if pl.Resid[a] <= 0 {
			continue
		}
		if v := g.Potential(pl.Head[a]) + pl.Cost[a]*c.scale; v < best {
			best = v
		}
	}
	if best == unset {
		return 0, false
	}
	return best + eps, true
}

// scaledReducedCost is the reduced cost of a in the internally scaled cost
// domain.
//
//firmament:hotpath
func (c *CostScaling) scaledReducedCost(g *flow.Graph, a flow.ArcID) int64 {
	return g.Cost(a)*c.scale - g.Potential(g.Tail(a)) + g.Potential(g.Head(a))
}

// maxScaledCost returns the largest absolute scaled arc cost (the classic
// initial epsilon). The graph tracks the maximum incrementally under
// AddArc/RemoveArc/SetArcCost, so the steady-state warm start pays O(1)
// here instead of the O(M) sweep this used to be.
//
//firmament:hotpath
func (c *CostScaling) maxScaledCost(g *flow.Graph) int64 {
	m := g.MaxAbsCost()
	if m < 1 {
		m = 1
	}
	return m * c.scale
}

// maxViolation returns the largest negative scaled reduced cost over
// residual arcs — how far the current state is from 0-optimality. Graph
// changes since the last run are the only possible source of violations.
//
//firmament:hotpath
func (c *CostScaling) maxViolation(g *flow.Graph) int64 {
	var m int64
	pl := g.ArcPlanes()
	for a := 0; a < g.ArcIDBound(); a += 2 {
		fwd := flow.ArcID(a)
		if !g.ArcInUse(fwd) {
			continue
		}
		// The reverse partner's reduced cost is the negation, so one pair
		// load covers both directions: the forward arc violates when rc < 0
		// with forward residual, the reverse when rc > 0 with flow on it.
		rc := c.scaledReducedCost(g, fwd)
		if rc < -m {
			if pl.Resid[fwd] > 0 {
				m = -rc
			}
		} else if rc > m {
			if pl.Resid[fwd^1] > 0 {
				m = rc
			}
		}
	}
	return m
}

func (c *CostScaling) grow(n int) {
	// Keyed on a slice grow itself owns: c.excess is resized independently
	// by ImbalancesInto, so its length cannot gate the others.
	if len(c.cur) < n {
		c.excess = make([]int64, n)
		c.cur = make([]int32, n)
		c.relabels = make([]int32, n)
		c.inQueue = make([]bool, n)
		c.dist = make([]int64, n)
	}
}

var _ IncrementalSolver = (*CostScaling)(nil)
