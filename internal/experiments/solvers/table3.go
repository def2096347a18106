package solvers

import "firmament/internal/flow"

// ChangeEffect reports which properties of an existing solution an arc
// change invalidates (paper Table 3). BreaksFeasibility means mass balance
// no longer holds; BreaksOptimality means the complementary slackness
// certificate against the stored potentials is destroyed, so an incremental
// solver must re-optimize even though the flow may coincidentally remain
// optimal.
type ChangeEffect struct {
	BreaksFeasibility bool
	BreaksOptimality  bool
}

// PredictCapacityChange classifies changing forward arc a's capacity to
// newCap, per paper Table 3:
//
//   - increasing capacity breaks optimality iff the arc's reduced cost is
//     negative (the new residual capacity sits on a negative reduced cost
//     arc);
//   - decreasing capacity breaks feasibility iff existing flow exceeds the
//     new capacity; it additionally breaks nothing else.
//
// Call before applying the change.
func PredictCapacityChange(g *flow.Graph, a flow.ArcID, newCap int64) ChangeEffect {
	fwd := a &^ 1
	rc := g.ReducedCost(fwd)
	oldCap := g.Capacity(fwd)
	f := g.Flow(fwd)
	var e ChangeEffect
	if newCap > oldCap && rc < 0 {
		e.BreaksOptimality = true
	}
	if newCap < oldCap && f > newCap {
		e.BreaksFeasibility = true
	}
	return e
}

// PredictCostChange classifies changing forward arc a's cost to newCost,
// per paper Table 3:
//
//   - increasing the cost of an arc whose reduced cost was negative breaks
//     optimality iff the new reduced cost is positive (the arc is
//     saturated, and saturated arcs must not have positive reduced cost);
//   - increasing the cost of a zero reduced cost arc breaks optimality iff
//     it carries flow;
//   - decreasing the cost breaks optimality iff the new reduced cost is
//     negative while the arc has residual capacity.
//
// Call before applying the change.
func PredictCostChange(g *flow.Graph, a flow.ArcID, newCost int64) ChangeEffect {
	fwd := a &^ 1
	oldCost := g.Cost(fwd)
	rc := g.ReducedCost(fwd)
	newRc := rc + (newCost - oldCost)
	f := g.Flow(fwd)
	resid := g.Resid(fwd)
	var e ChangeEffect
	switch {
	case newCost > oldCost:
		switch {
		case rc < 0:
			e.BreaksOptimality = newRc > 0 && f > 0
		case rc == 0:
			e.BreaksOptimality = newRc > 0 && f > 0
		default: // rc > 0: flow is zero under complementary slackness
			e.BreaksOptimality = f > 0 // defensive; CS implies f == 0
		}
	case newCost < oldCost:
		e.BreaksOptimality = newRc < 0 && resid > 0
	}
	return e
}

// CertificateIntact verifies the complementary slackness certificate for
// the current flow and stored potentials: the flow is feasible, no residual
// arc has negative reduced cost, and no arc with positive reduced cost
// carries flow. This is the ground truth the Table 3 predictions are tested
// against.
func CertificateIntact(g *flow.Graph) (feasible, optimal bool) {
	feasible = g.CheckFeasible() == nil
	optimal = true
	for a := 0; a < g.ArcIDBound(); a++ {
		arc := flow.ArcID(a)
		if !g.ArcInUse(arc) {
			continue
		}
		if g.Resid(arc) > 0 && g.ReducedCost(arc) < 0 {
			optimal = false
			return
		}
	}
	return
}
