package mcmf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"firmament/internal/flow"
)

// This file keeps the passes that cost scaling's sweep, relaxation's opening
// pass and the seeded price refine replaced, as oracles: each new pass must
// reproduce its oracle bit for bit on the differential suite's graphs.

// scaledReducedCost is the reduced cost of a in c's internally scaled cost
// domain.
func (c *CostScaling) scaledReducedCost(g *flow.Graph, a flow.ArcID) int64 {
	return g.Cost(a)*c.scale - g.Potential(g.Tail(a)) + g.Potential(g.Head(a))
}

// maxViolation returns the largest negative scaled reduced cost over
// residual arcs and the largest absolute scaled arc cost, at least one scale
// unit: the scan that opened every tier before the sweep.
func (c *CostScaling) maxViolation(g *flow.Graph) (viol, maxCost int64) {
	pl := g.ArcPlanes()
	for a := 0; a < g.ArcIDBound(); a += 2 {
		fwd := flow.ArcID(a)
		if !g.ArcInUse(fwd) {
			continue
		}
		if cost := pl.Cost[fwd]; cost > maxCost {
			maxCost = cost
		} else if -cost > maxCost {
			maxCost = -cost
		}
		rc := c.scaledReducedCost(g, fwd)
		if rc < -viol {
			if pl.Resid[fwd] > 0 {
				viol = -rc
			}
		} else if rc > viol {
			if pl.Resid[fwd^1] > 0 {
				viol = rc
			}
		}
	}
	return viol, max(maxCost, 1) * c.scale
}

// threePasses is the oracle of CostScaling.sweep: maxViolation, then the
// saturation pass that opened every refine, then ImbalancesInto.
func (c *CostScaling) threePasses(g *flow.Graph) (viol, maxCost int64, excess []int64) {
	viol, maxCost = c.maxViolation(g)
	pl := g.ArcPlanes()
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
	return viol, maxCost, g.ImbalancesInto(nil)
}

// twoPasses is the oracle of Relaxation.open: the saturation pass over
// every arc slot that opened every run, then ImbalancesInto.
func twoPasses(g *flow.Graph) []int64 {
	pl := g.ArcPlanes()
	for a := 0; a < g.ArcIDBound(); a++ {
		arc := flow.ArcID(a)
		if g.ArcInUse(arc) && pl.Resid[arc] > 0 && g.ReducedCost(arc) < 0 {
			g.Push(arc, pl.Resid[arc])
		}
	}
	return g.ImbalancesInto(nil)
}

// priceRefineAllNodes is the oracle of Scratch.PriceRefine: the same FIFO
// label-correcting search with every live node seeded, in ID order.
func (s *Scratch) priceRefineAllNodes(g *flow.Graph, costScale, eps int64) bool {
	n := g.NodeIDBound()
	adj := g.Adjacency()
	pl := g.ArcPlanes()
	if n == 0 {
		return true
	}
	dist := s.int64s(n)
	inQueue := s.bools(n)
	relaxations := s.int32s(n, 0)
	queue := s.nodes(n)
	qhead, qlen := 0, 0
	g.Nodes(func(id flow.NodeID) {
		queue[(qhead+qlen)%n] = id
		qlen++
		inQueue[id] = true
	})
	limit := int32(g.NumNodes() + 1)
	for qlen > 0 {
		u := queue[qhead]
		qhead = (qhead + 1) % n
		qlen--
		inQueue[u] = false
		du := dist[u]
		for _, a := range adj.Out(u) {
			if pl.Resid[a] <= 0 {
				continue
			}
			v := pl.Head[a]
			if d := du + pl.Cost[a]*costScale + eps; d < dist[v] {
				dist[v] = d
				if !inQueue[v] {
					relaxations[v]++
					if relaxations[v] > limit {
						return false
					}
					queue[(qhead+qlen)%n] = v
					qlen++
					inQueue[v] = true
				}
			}
		}
	}
	g.Nodes(func(id flow.NodeID) {
		g.SetPotential(id, -dist[id])
	})
	return true
}

// removeRandomTask deletes a random task node with its arcs, and the unit
// of demand it fed, so that the graph stays feasible and the arc planes hold
// dead slots whose residuals remain behind.
func removeRandomTask(rng *rand.Rand, g *flow.Graph) {
	var sink flow.NodeID
	var tasks []flow.NodeID
	g.Nodes(func(id flow.NodeID) {
		switch g.Kind(id) {
		case flow.KindSink:
			sink = id
		case flow.KindTask:
			tasks = append(tasks, id)
		}
	})
	g.RemoveNode(tasks[rng.Intn(len(tasks))])
	g.SetSupply(sink, g.Supply(sink)+1)
}

// TestSweepMatchesThreePasses checks cost scaling's fused sweep against the
// three passes it replaced, at the opening of every refine tier: on the
// differential suite's seeded graphs from scratch, and after every change
// batch (plus a task removal, which leaves dead arc slots) warm-started
// from the previous solve. The violation, the largest scaled cost, the
// residual planes and the node excesses must all be equal.
func TestSweepMatchesThreePasses(t *testing.T) {
	const changeRounds = 3
	for seed := int64(0); seed < differentialSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			g := randomSchedulingGraph(rng, 20+rng.Intn(40), 4+rng.Intn(10), 1+rng.Intn(3))
			c := NewCostScaling()
			c.ensureScale(g, true)
			sweepTiers(t, "initial graph", c, g, scratchEps)
			if _, err := c.Solve(g, nil); err != nil {
				t.Fatalf("initial solve: %v", err)
			}
			for round := 1; round <= changeRounds; round++ {
				label := fmt.Sprintf("round %d", round)
				batch := rand.New(rand.NewSource(seed*1009 + int64(round)))
				mutateSchedulingGraph(batch, g)
				removeRandomTask(batch, g)
				sweepTiers(t, label, c, g, warmEps)
				if _, err := c.SolveIncremental(g, nil); err != nil {
					t.Fatalf("%s: incremental solve: %v", label, err)
				}
			}
		})
	}
}

// TestRelaxOpenMatchesTwoPasses runs relaxation's opening pass and its
// oracle on clones of the same state — each differential graph from
// scratch, then warm after every change batch of a relaxation chain — and
// requires equal residual planes and node excesses.
func TestRelaxOpenMatchesTwoPasses(t *testing.T) {
	const changeRounds = 3
	check := func(label string, r *Relaxation, base *flow.Graph) {
		t.Helper()
		g, want := base.Clone(), base.Clone()
		wex := twoPasses(want)
		r.grow(g.NodeIDBound())
		if err := r.open(g, nil); err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		if got, exp := g.ArcPlanes().Resid, want.ArcPlanes().Resid; !slices.Equal(got, exp) {
			t.Fatalf("%s: residuals after the opening pass\n%v\nafter the two passes\n%v", label, got, exp)
		}
		if got := r.excess[:g.NodeIDBound()]; !slices.Equal(got, wex) {
			t.Fatalf("%s: opening pass excesses\n%v\nImbalancesInto\n%v", label, got, wex)
		}
	}
	for seed := int64(0); seed < differentialSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomSchedulingGraph(rng, 20+rng.Intn(40), 4+rng.Intn(10), 1+rng.Intn(3))
		r := NewRelaxation()
		check(fmt.Sprintf("seed %d, initial graph", seed), r, g)
		if _, err := r.Solve(g, nil); err != nil {
			t.Fatalf("seed %d: initial solve: %v", seed, err)
		}
		for round := 1; round <= changeRounds; round++ {
			batch := rand.New(rand.NewSource(seed*1009 + int64(round)))
			mutateSchedulingGraph(batch, g)
			removeRandomTask(batch, g)
			check(fmt.Sprintf("seed %d, round %d", seed, round), r, g)
			if _, err := r.SolveIncremental(g, nil); err != nil {
				t.Fatalf("seed %d, round %d: incremental solve: %v", seed, round, err)
			}
		}
	}
}

// sweepTiers walks the epsilon schedule of a cost scaling run on a clone of
// base and, before every tier, runs the sweep on it and the oracle on a
// second clone of the same state.
func sweepTiers(t *testing.T, label string, c *CostScaling, base *flow.Graph, initialEps func(viol, maxCost int64) int64) {
	t.Helper()
	g := base.Clone()
	c.grow(g.NodeIDBound())
	c.adj = g.Adjacency()
	var eps int64
	for tier := 0; ; tier++ {
		want := g.Clone()
		wv, wm, wex := c.threePasses(want)
		v, m, err := c.sweep(g, nil)
		if err != nil {
			t.Fatalf("%s, tier %d: sweep: %v", label, tier, err)
		}
		if v != wv || m != wm {
			t.Fatalf("%s, tier %d: sweep found violation %d and max cost %d, the three passes %d and %d",
				label, tier, v, m, wv, wm)
		}
		if got, exp := g.ArcPlanes().Resid, want.ArcPlanes().Resid; !slices.Equal(got, exp) {
			t.Fatalf("%s, tier %d: residuals after the sweep\n%v\nafter the three passes\n%v", label, tier, got, exp)
		}
		if got := c.excess[:g.NodeIDBound()]; !slices.Equal(got, wex) {
			t.Fatalf("%s, tier %d: sweep excesses\n%v\nImbalancesInto\n%v", label, tier, got, wex)
		}
		if tier == 0 {
			eps = max(initialEps(v, m), 1)
		} else {
			if v == 0 {
				return
			}
			eps = max(min(eps/12, v), 1)
		}
		if err := c.refine(g, eps, nil); err != nil {
			t.Fatalf("%s, tier %d: refine(%d): %v", label, tier, eps, err)
		}
		if eps == 1 {
			return
		}
	}
}

// TestPriceRefineSeededMatchesAllNodes checks the seeded price refine
// against the all-nodes search it replaced, in cost scaling's scaled domain
// and in SSP's unscaled one, with eps 0 and eps > 0: on optimal flows (the
// pool's per-round refine), on the same flows after a change batch, and on
// general graphs with negative costs and no flow. Both must agree on
// success, and on success leave bit-identical potentials. Where no
// potentials exist both must return false and leave the potentials as they
// were; a flow routed around a negative cycle pins that case.
func TestPriceRefineSeededMatchesAllNodes(t *testing.T) {
	var accepted, rejected int
	check := func(label string, base *flow.Graph, scale, eps int64) {
		t.Helper()
		for id := 0; id < base.NodeIDBound(); id++ {
			if n := flow.NodeID(id); base.NodeInUse(n) {
				base.SetPotential(n, int64(7*id+3)) // stale prices neither search may read
			}
		}
		want, got := base.Clone(), base.Clone()
		wok := NewScratch().priceRefineAllNodes(want, scale, eps)
		ok := NewScratch().PriceRefine(got, scale, eps, nil)
		if ok != wok {
			t.Fatalf("%s (scale %d, eps %d): seeded refine returned %v, all-nodes refine %v", label, scale, eps, ok, wok)
		}
		if !ok {
			rejected++
			if got.Fingerprint() != base.Fingerprint() || want.Fingerprint() != base.Fingerprint() {
				t.Fatalf("%s (scale %d, eps %d): a refine that found no potentials changed the graph", label, scale, eps)
			}
			return
		}
		accepted++
		for id := 0; id < base.NodeIDBound(); id++ {
			if n := flow.NodeID(id); got.Potential(n) != want.Potential(n) {
				t.Fatalf("%s (scale %d, eps %d): node %d potential %d, all-nodes refine %d",
					label, scale, eps, id, got.Potential(n), want.Potential(n))
			}
		}
	}

	for seed := int64(0); seed < differentialSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomSchedulingGraph(rng, 20+rng.Intn(40), 4+rng.Intn(10), 1+rng.Intn(3))
		if _, err := NewRelaxation().Solve(g, nil); err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		scale := NewCostScaling().ScaleFor(g)
		label := fmt.Sprintf("seed %d, optimal flow", seed)
		for _, eps := range []int64{0, 1, scale / 2, 3 * scale} {
			check(label, g, scale, eps)
		}
		check(label, g, 1, 0)
		batch := rand.New(rand.NewSource(seed*1009 + 1))
		mutateSchedulingGraph(batch, g)
		removeRandomTask(batch, g)
		label = fmt.Sprintf("seed %d, changed flow", seed)
		for _, eps := range []int64{0, scale / 2, 3 * scale} {
			check(label, g, scale, eps)
		}
	}
	for seed := int64(0); seed < differentialSeeds/2; seed++ {
		g := randomGeneralGraph(rand.New(rand.NewSource(seed+7777)), 8+int(seed%16))
		check(fmt.Sprintf("general graph %d", seed), g, 1, 0)
		check(fmt.Sprintf("general graph %d", seed), g, 1, 5)
	}

	// The flow goes the expensive way round s → mid → d, so the residual
	// network holds the cycle s → d → mid → s of cost 1 - 5 - 5.
	g := flow.NewGraph(3, 3)
	s := g.AddNode(1, flow.KindTask)
	mid := g.AddNode(0, flow.KindOther)
	d := g.AddNode(-1, flow.KindSink)
	g.AddArc(s, d, 1, 1)
	g.Push(g.AddArc(s, mid, 1, 5), 1)
	g.Push(g.AddArc(mid, d, 1, 5), 1)
	before := rejected
	check("negative cycle", g, 1, 0)
	check("negative cycle", g, 1, 2)
	if rejected != before+2 {
		t.Fatal("a refine found potentials for a flow with a negative residual cycle")
	}
	check("negative cycle", g, 1, 4) // (1-5-5)/3 > -4: the flow is 4-optimal
	t.Logf("%d refines found potentials, %d found none", accepted, rejected)
	if accepted == 0 || before == 0 {
		t.Fatalf("%d accepted, %d rejected before the negative cycle: the corpus misses a case", accepted, before)
	}
}
