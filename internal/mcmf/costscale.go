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
// All adjacency iteration goes through the graph's adjacency rows
// (flow.Graph.Adjacency): the discharge loop visits each node's out-arcs
// many times per refine, and a contiguous row keeps those visits inside
// the cache exactly where this solver spends its time.
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
// potentials and starts epsilon at the largest scaled arc cost.
func (c *CostScaling) Solve(g *flow.Graph, opts *Options) (Result, error) {
	start := time.Now()
	g.ResetFlow()
	g.ResetPotentials()
	c.ensureScale(g, true)
	return c.run(g, scratchEps, start, opts)
}

// SolveIncremental implements IncrementalSolver: it keeps the flow and
// potentials already on g and restarts epsilon at the largest reduced-cost
// violation present, falling back to a full restart only if the violation
// is as large as the maximum cost anyway.
func (c *CostScaling) SolveIncremental(g *flow.Graph, opts *Options) (Result, error) {
	start := time.Now()
	c.ensureScale(g, false)
	if c.scale <= int64(g.NumNodes()) {
		// The graph outgrew the scale the stored potentials use; their
		// epsilon guarantees are void, so restart scaled state.
		g.ResetPotentials()
		c.ensureScale(g, true)
		res, err := c.run(g, scratchEps, start, opts)
		res.FullRestart = true
		return res, err
	}
	return c.run(g, warmEps, start, opts)
}

// scratchEps is the classic initial epsilon: the largest scaled arc cost.
func scratchEps(_, maxCost int64) int64 { return maxCost }

// warmEps starts a warm run at the largest violation the graph changes
// introduced, capped by the largest scaled arc cost. Graph changes since the
// last run are the only possible source of violations.
func warmEps(viol, maxCost int64) int64 { return min(max(viol, 1), maxCost) }

// run performs refine passes from the epsilon that initialEps picks from
// the first sweep's (violation, largest scaled cost) down to 1.
func (c *CostScaling) run(g *flow.Graph, initialEps func(viol, maxCost int64) int64, start time.Time, opts *Options) (Result, error) {
	c.grow(g.NodeIDBound())
	c.adj = g.Adjacency() // repair once; structure is fixed for the solve
	alpha := opts.alpha()
	viol, maxCost, err := c.sweep(g, opts)
	if err != nil {
		return Result{}, err
	}
	eps := max(initialEps(viol, maxCost), 1)
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
		// epsilon the next tier must repair. The sweep that measures it is
		// the next tier's saturation pass, so the check costs nothing (cs2
		// applies the same check between scaling phases). A zero violation
		// means the feasible flow is already 0-optimal — optimal — the sweep
		// saturated nothing, and the remaining tiers are no-ops.
		v, _, err := c.sweep(g, opts)
		if err != nil {
			return Result{}, err
		}
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

// sweep is the one pass over the arc pairs that opens every refine tier.
// Saturation does not depend on epsilon, so the pass does three jobs at
// once, pair by pair:
//
//   - it measures how far the state is from 0-optimality before saturating:
//     the largest negative scaled reduced cost over residual arcs (viol),
//     and the largest absolute scaled arc cost, at least one scale unit
//     (maxCost, the classic initial epsilon);
//   - it saturates every residual arc with negative reduced cost, as a
//     refine starts from a 0-optimal pseudoflow with respect to the
//     current potentials;
//   - it accumulates the node excesses of the saturated pseudoflow into
//     c.excess, starting from the supplies, which the tier's discharge
//     then works off.
//
// The partners' reduced costs are negations of each other, so at most one
// direction of a pair can violate, and both plane entries sit on the same
// cache lines.
//
//firmament:hotpath
func (c *CostScaling) sweep(g *flow.Graph, opts *Options) (viol, maxCost int64, err error) {
	pl := g.ArcPlanes()
	excess := c.excess[:g.NodeIDBound()]
	for i := range excess {
		excess[i] = 0
		if id := flow.NodeID(i); g.NodeInUse(id) {
			excess[i] = g.Supply(id)
		}
	}
	for a := 0; a < g.ArcIDBound(); a += 2 {
		if (a/2+1)%stopCheckInterval == 0 && opts.poll(phaseSaturate) {
			return 0, 0, ErrStopped
		}
		fwd := flow.ArcID(a)
		if !g.ArcInUse(fwd) {
			continue
		}
		rev := fwd ^ 1
		cost := pl.Cost[fwd]
		maxCost = max(maxCost, cost, -cost)
		tail, head := pl.Head[rev], pl.Head[fwd]
		rc := cost*c.scale - g.Potential(tail) + g.Potential(head)
		if rc < 0 {
			if r := pl.Resid[fwd]; r > 0 {
				viol = max(viol, -rc)
				g.Push(fwd, r)
			}
		} else if rc > 0 {
			if r := pl.Resid[rev]; r > 0 {
				viol = max(viol, rc)
				g.Push(rev, r)
			}
		}
		if f := pl.Resid[rev]; f != 0 {
			excess[tail] -= f
			excess[head] += f
		}
	}
	return viol, max(maxCost, 1) * c.scale, nil
}

// refine converts the pseudoflow the preceding sweep saturated into a
// feasible eps-optimal flow: it discharges nodes with positive excess via
// FIFO push-relabel, where an arc is admissible if its scaled reduced cost
// is negative and relabeling raises a node's potential just enough to
// create an admissible arc.
//
//firmament:hotpath
func (c *CostScaling) refine(g *flow.Graph, eps int64, opts *Options) error {
	bound := g.NodeIDBound()
	pl := g.ArcPlanes()
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
	if err := c.priceUpdate(g, eps, opts); err != nil {
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
			if work%stopCheckInterval == 0 && opts.poll(phaseDischarge) {
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
					if err := c.priceUpdate(g, eps, opts); err != nil {
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
// the problem infeasible. The search checks for cancellation every
// stopCheckInterval arcs relaxed.
//
//firmament:hotpath
func (c *CostScaling) priceUpdate(g *flow.Graph, eps int64, opts *Options) error {
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
	var work int
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
			if work++; work%stopCheckInterval == 0 && opts.poll(phasePriceUpdate) {
				return ErrStopped
			}
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

func (c *CostScaling) grow(n int) {
	if len(c.cur) < n {
		c.excess = make([]int64, n)
		c.cur = make([]int32, n)
		c.relabels = make([]int32, n)
		c.inQueue = make([]bool, n)
		c.dist = make([]int64, n)
	}
}

var _ IncrementalSolver = (*CostScaling)(nil)
