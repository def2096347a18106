package mcmf

import (
	"firmament/internal/flow"
)

// Scratch holds the working arrays of PriceRefine. Long-lived callers pin
// one to themselves — the solver pool holds one for its per-round price
// refine — so that the steady-state round performs no allocation at all.
// (An earlier revision borrowed these from a sync.Pool, but pool hits are
// not guaranteed: every GC cycle empties the pool, and the misses showed up
// as steady allocations in the Fig. 7 benchmarks.)
type Scratch struct {
	i64     []int64 // labels
	counts  []int32 // relaxation counters
	inQueue []bool
	queue   []flow.NodeID
}

// NewScratch returns an empty Scratch; its arrays grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// int64s returns a zeroed int64 slice of length n, reusing capacity.
func (s *Scratch) int64s(n int) []int64 {
	if cap(s.i64) < n {
		s.i64 = make([]int64, n)
	} else {
		s.i64 = s.i64[:n]
		for i := range s.i64 {
			s.i64[i] = 0
		}
	}
	return s.i64
}

// int32s returns an int32 slice of length n filled with v, reusing capacity.
func (s *Scratch) int32s(n int, v int32) []int32 {
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	} else {
		s.counts = s.counts[:n]
	}
	for i := range s.counts {
		s.counts[i] = v
	}
	return s.counts
}

// bools returns a zeroed bool slice of length n, reusing capacity.
func (s *Scratch) bools(n int) []bool {
	if cap(s.inQueue) < n {
		s.inQueue = make([]bool, n)
	} else {
		s.inQueue = s.inQueue[:n]
		for i := range s.inQueue {
			s.inQueue[i] = false
		}
	}
	return s.inQueue
}

// nodes returns a node slice of length n for use as a FIFO ring (the
// queue holds each node at most once, so occupancy never exceeds n).
func (s *Scratch) nodes(n int) []flow.NodeID {
	if cap(s.queue) < n {
		s.queue = make([]flow.NodeID, n)
	}
	return s.queue[:n]
}

// PriceRefine computes node potentials under which the *current* flow on g
// is eps-optimal — no residual arc has reduced cost below -eps — without
// modifying the flow. It returns false if the current flow admits no such
// potentials (i.e., it is not eps-optimal under any prices, which means the
// residual network has a cycle of total cost < -eps·len).
//
// costScale multiplies arc costs before the test, allowing cost scaling to
// refine in its internally scaled cost domain (§6.2: Firmament applies
// price refine to a finished relaxation solution so that the next
// incremental cost scaling run can start from a small epsilon). The solver
// pool runs it every round on its pinned Scratch.
//
// The potentials are the negated labels of a FIFO label-correcting search
// in which every label starts at 0: the greatest fixed point ≤ 0 of
// d(v) = min(0, min over residual u→v of d(u) + cost·costScale + eps). That
// fixed point is unique, so any queue order reaches the same labels, and
// the search seeds its queue with only the nodes that can lower a label
// while every label is still 0: the tails of residual arcs with
// cost·costScale + eps < 0, found in one pass over the planes. Every other
// node joins the queue when its own label first drops. A cycle that defeats
// every potential has negative total length, so it holds such an arc and
// is still detected. The search scans only the rows of nodes whose labels
// move, where seeding every node scanned every row.
//
//firmament:hotpath
func (s *Scratch) PriceRefine(g *flow.Graph, costScale, eps int64, opts *Options) bool {
	n := g.NodeIDBound()
	adj := g.Adjacency()
	pl := g.ArcPlanes()
	if n == 0 {
		return true
	}
	dist := s.int64s(n)
	inQueue := s.bools(n)
	relaxations := s.int32s(n, 0)
	// FIFO ring: the inQueue guard bounds occupancy by n.
	queue := s.nodes(n)
	qhead, qlen := 0, 0
	for a := 0; a < g.ArcIDBound(); a++ {
		if pl.Resid[a] <= 0 || pl.Cost[a]*costScale+eps >= 0 || !g.ArcInUse(flow.ArcID(a)) {
			continue
		}
		if u := pl.Head[a^1]; !inQueue[u] {
			queue[qlen] = u
			qlen++
			inQueue[u] = true
		}
	}
	limit := int32(g.NumNodes() + 1)
	var work int
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
			work++
			if work%stopCheckInterval == 0 && opts.stopped() {
				return false
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
	for i := 0; i < n; i++ {
		if id := flow.NodeID(i); g.NodeInUse(id) {
			g.SetPotential(id, -dist[id])
		}
	}
	return true
}
