package flow

import "fmt"

// Imbalances returns, for every node ID below NodeIDBound, the node's excess
// e(n) = b(n) - (outflow(n) - inflow(n)).
//
// A feasible flow has zero imbalance everywhere (mass balance, paper Eq. 2).
// Between solver runs the scheduler mutates supplies, arcs and capacities,
// so imbalances are generally nonzero; incremental solvers call this to
// locate the surpluses and deficits they must repair (paper §5.2).
func (g *Graph) Imbalances() []int64 {
	return g.ImbalancesInto(nil)
}

// ImbalancesInto is Imbalances writing into im, growing it if needed and
// returning the (possibly reallocated) slice. Solvers call this once per
// run or refine pass with a solver-held buffer so that the steady-state
// solve loop does not allocate.
func (g *Graph) ImbalancesInto(im []int64) []int64 {
	if cap(im) < len(g.nodes) {
		im = make([]int64, len(g.nodes))
	} else {
		im = im[:len(g.nodes)]
		for i := range im {
			im[i] = 0
		}
	}
	for i := range g.nodes {
		if g.nodes[i].inUse {
			im[i] = g.nodes[i].supply
		}
	}
	for i := 0; i < len(g.arcAlive); i += 2 {
		if !g.arcAlive[i] {
			continue
		}
		f := g.arcResid[i^1] // flow on forward arc i
		if f == 0 {
			continue
		}
		tail := g.arcHead[i^1]
		head := g.arcHead[i]
		im[tail] -= f
		im[head] += f
	}
	return im
}

// CheckFeasible verifies mass balance at every node and 0 <= flow <= cap on
// every arc (paper Eq. 2–3), returning a descriptive error on the first
// violation.
func (g *Graph) CheckFeasible() error {
	for i := 0; i < len(g.arcAlive); i += 2 {
		if !g.arcAlive[i] {
			continue
		}
		if g.arcResid[i] < 0 || g.arcResid[i^1] < 0 {
			return fmt.Errorf("flow: arc %d has negative residual (%d fwd, %d rev)",
				i, g.arcResid[i], g.arcResid[i^1])
		}
	}
	for n, e := range g.Imbalances() {
		if e != 0 {
			return fmt.Errorf("flow: node %d (%s) violates mass balance by %d",
				n, g.nodes[n].kind, e)
		}
	}
	return nil
}

// TotalCost returns sum(cost(a) * flow(a)) over forward arcs (paper Eq. 1).
func (g *Graph) TotalCost() int64 {
	var total int64
	for i := 0; i < len(g.arcAlive); i += 2 {
		if g.arcAlive[i] {
			total += g.arcCost[i] * g.arcResid[i^1]
		}
	}
	return total
}

// TotalSupply returns the sum of positive supplies (the amount of flow the
// network must route for feasibility).
func (g *Graph) TotalSupply() int64 {
	var total int64
	for i := range g.nodes {
		if g.nodes[i].inUse && g.nodes[i].supply > 0 {
			total += g.nodes[i].supply
		}
	}
	return total
}

// CheckOptimal verifies the negative cycle optimality condition (paper §4,
// condition 1): the residual network must contain no negative-cost directed
// cycle. It runs a Bellman-Ford pass over all residual arcs; a relaxation
// still possible after N rounds implies a negative cycle.
//
// CheckOptimal assumes the flow is feasible; call CheckFeasible first.
func (g *Graph) CheckOptimal() error {
	n := len(g.nodes)
	dist := make([]int64, n)
	for round := 0; round < n; round++ {
		improved := false
		for a := 0; a < len(g.arcAlive); a++ {
			if !g.arcAlive[a] || g.arcResid[a] <= 0 {
				continue
			}
			tail := g.arcHead[a^1]
			if !g.nodes[tail].inUse {
				continue
			}
			head := g.arcHead[a]
			if d := dist[tail] + g.arcCost[a]; d < dist[head] {
				dist[head] = d
				improved = true
			}
		}
		if !improved {
			return nil
		}
	}
	return fmt.Errorf("flow: residual network contains a negative-cost cycle")
}

// CheckReducedCostOptimal verifies reduced cost optimality (paper §4,
// condition 2) against the stored node potentials: no residual arc may have
// negative reduced cost. eps relaxes the test to epsilon-optimality (paper
// §4, cost scaling): residual arcs may have reduced cost >= -eps.
func (g *Graph) CheckReducedCostOptimal(eps int64) error {
	for a := 0; a < len(g.arcAlive); a++ {
		if !g.arcAlive[a] || g.arcResid[a] <= 0 {
			continue
		}
		if rc := g.ReducedCost(ArcID(a)); rc < -eps {
			return fmt.Errorf("flow: arc %d has reduced cost %d < -%d with residual capacity", a, rc, eps)
		}
	}
	return nil
}

// ResetFlow removes all flow from the graph, returning every pair to
// (resid=capacity, reverse resid=0). Potentials and supplies are preserved.
func (g *Graph) ResetFlow() {
	for i := 0; i < len(g.arcAlive); i += 2 {
		if !g.arcAlive[i] {
			continue
		}
		g.arcResid[i] += g.arcResid[i^1]
		g.arcResid[i^1] = 0
	}
}

// ResetPotentials zeroes every node potential.
func (g *Graph) ResetPotentials() {
	for i := range g.nodes {
		g.nodes[i].potential = 0
	}
}

// Clone returns a deep copy of the graph. Each speculative solver runs on
// its own clone (paper §6.1).
func (g *Graph) Clone() *Graph {
	return g.CloneInto(nil)
}

// CloneInto deep-copies g into dst (reusing dst's storage where possible)
// and returns dst; pass nil to allocate. The solver pool re-clones the
// scheduling graph every round for the speculative cost scaling run, so
// avoiding reallocation matters at 10,000-machine scale.
//
// The compact adjacency index is copied along with the graph — including
// its dirty-row bookkeeping — so a replica cloned from a graph with a
// built index never rebuilds it from scratch: its first Adjacency() call
// repairs only the rows dirtied since the source last repaired. The copy
// is deep; the clone and the original never share mutable index state, so
// the speculative solver race can run both graphs concurrently. The same
// holds for the arc planes and the incremental max-cost tracker.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst == nil {
		dst = &Graph{}
	}
	dst.nodes = append(dst.nodes[:0], g.nodes...)
	dst.arcHead = append(dst.arcHead[:0], g.arcHead...)
	dst.arcNext = append(dst.arcNext[:0], g.arcNext...)
	dst.arcPrev = append(dst.arcPrev[:0], g.arcPrev...)
	dst.arcResid = append(dst.arcResid[:0], g.arcResid...)
	dst.arcCost = append(dst.arcCost[:0], g.arcCost...)
	dst.arcAlive = append(dst.arcAlive[:0], g.arcAlive...)
	dst.freeNodes = append(dst.freeNodes[:0], g.freeNodes...)
	dst.freeArcs = append(dst.freeArcs[:0], g.freeArcs...)
	dst.numNodes = g.numNodes
	dst.numArcs = g.numArcs
	dst.costMax = g.costMax
	dst.costMaxCount = g.costMaxCount
	dst.costMaxStale = g.costMaxStale
	dst.adj.copyFrom(&g.adj)
	return dst
}

// CopyFlowAndPotentialsFrom copies the flow assignment and node potentials
// from src, which must have identical topology (same node and arc IDs).
// The solver pool uses this to install a winning relaxation solution, found
// on its replica, over the main graph that incremental cost scaling runs on
// in place (paper §6.1).
func (g *Graph) CopyFlowAndPotentialsFrom(src *Graph) error {
	if len(g.arcAlive) != len(src.arcAlive) || len(g.nodes) != len(src.nodes) {
		return fmt.Errorf("flow: topology mismatch (%d/%d nodes, %d/%d arcs)",
			len(g.nodes), len(src.nodes), len(g.arcAlive), len(src.arcAlive))
	}
	for i := range g.arcAlive {
		if g.arcAlive[i] != src.arcAlive[i] || (g.arcAlive[i] && g.arcHead[i] != src.arcHead[i]) {
			return fmt.Errorf("flow: arc %d differs between graphs", i)
		}
		g.arcResid[i] = src.arcResid[i]
	}
	for i := range g.nodes {
		g.nodes[i].potential = src.nodes[i].potential
	}
	return nil
}
