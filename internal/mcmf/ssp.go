package mcmf

import (
	"time"

	"firmament/internal/flow"
)

// SuccessiveShortestPath implements the successive shortest path algorithm
// (paper §4, [Ahuja/Magnanti/Orlin p.320]): it maintains reduced cost
// optimality at every step (Table 2) and achieves feasibility by repeatedly
// sending flow from a surplus node to the nearest deficit node along a
// shortest path in the residual network, measured in reduced costs.
// Worst-case complexity O(N²·U·log N), Table 1.
//
// Despite the best worst-case bound of the four algorithms, it only
// outperforms cycle canceling on scheduling graphs (Figure 7) because every
// unit of supply pays for a Dijkstra search.
type SuccessiveShortestPath struct {
	adj     flow.Adjacency
	search  sspSearch
	excess  []int64
	sources []flow.NodeID
	scratch helperScratch // pinned storage for InitPotentials
}

// NewSuccessiveShortestPath returns an SSP solver.
func NewSuccessiveShortestPath() *SuccessiveShortestPath {
	return &SuccessiveShortestPath{}
}

// Name implements Solver.
func (s *SuccessiveShortestPath) Name() string { return "successive-shortest-path" }

// Solve implements Solver.
func (s *SuccessiveShortestPath) Solve(g *flow.Graph, opts *Options) (Result, error) {
	start := time.Now()
	g.ResetFlow()
	g.ResetPotentials()
	if !initPotentials(g, opts, &s.scratch) {
		// A negative cycle with zero flow means negative-cost arcs form a
		// cycle; saturating them is not modelled here — Firmament's graphs
		// are DAGs, so this indicates a malformed input.
		return Result{}, ErrInfeasible
	}
	s.search.grow(g.NodeIDBound())
	s.adj = g.Adjacency()

	s.excess = g.ImbalancesInto(s.excess)
	excess := s.excess
	sources := s.sources[:0]
	for i, e := range excess {
		if e > 0 {
			sources = append(sources, flow.NodeID(i))
		}
	}
	s.sources = sources

	var iters int64
	for _, src := range sources {
		for excess[src] > 0 {
			if opts.stopped() {
				return Result{}, ErrStopped
			}
			target, ok := s.search.dijkstra(g, s.adj, src, excess, opts)
			if !ok {
				if opts.stopped() {
					return Result{}, ErrStopped
				}
				return Result{}, ErrInfeasible
			}
			s.search.repriceAndAugment(g, src, target, excess)
			iters++
			opts.snapshot(start)
		}
	}
	return Result{
		Algorithm:  s.Name(),
		Cost:       g.TotalCost(),
		Runtime:    time.Since(start),
		Iterations: iters,
	}, nil
}

// sspSearch is the working state of the solver's Dijkstra search, kept
// across runs so steady-state solves allocate nothing.
type sspSearch struct {
	dist    []int64
	parent  []flow.ArcID
	visited []int32
	touched []flow.NodeID // nodes labeled this epoch, for repricing
	epoch   int32
	pq      distHeap
}

func (w *sspSearch) grow(n int) {
	if len(w.dist) < n {
		w.dist = make([]int64, n)
		w.parent = make([]flow.ArcID, n)
		w.visited = make([]int32, n)
		w.epoch = 0
	}
}

// dijkstra computes shortest distances from src over residual arcs
// weighted by reduced cost (non-negative by the reduced cost optimality
// invariant), settling every reachable node — the textbook formulation
// [Ahuja/Magnanti/Orlin p.320], which is what makes SSP pay a full
// shortest-path-tree per unit of routed flow and lose to everything except
// cycle canceling at scale (paper Figure 7). It returns the nearest
// deficit node, or ok=false if none is reachable.
//
//firmament:hotpath
func (w *sspSearch) dijkstra(g *flow.Graph, adj flow.Adjacency, src flow.NodeID, excess []int64, opts *Options) (flow.NodeID, bool) {
	pl := g.ArcPlanes()
	w.epoch++
	w.pq.reset()
	w.touched = w.touched[:0]
	w.dist[src] = 0
	w.visited[src] = w.epoch
	w.touched = append(w.touched, src)
	w.parent[src] = flow.InvalidArc
	w.pq.push(src, 0)
	best := flow.InvalidNode
	var bestDist int64
	var work int
	for w.pq.size() > 0 {
		nd := w.pq.pop()
		u := nd.node
		if nd.dist > w.dist[u] {
			continue // stale entry
		}
		work++
		if work%stopCheckInterval == 0 && opts.stopped() {
			return flow.InvalidNode, false
		}
		if excess[u] < 0 && (best == flow.InvalidNode || nd.dist < bestDist) {
			best, bestDist = u, nd.dist
		}
		// rc(a) = cost(a) - pi(u) + pi(head); pi(u) is row-invariant.
		piU := g.Potential(u)
		for _, a := range adj.Out(u) {
			if pl.Resid[a] <= 0 {
				continue
			}
			v := pl.Head[a]
			rc := pl.Cost[a] - piU + g.Potential(v)
			if rc < 0 {
				rc = 0 // tolerate rounding of repriced unscanned nodes
			}
			d := nd.dist + rc
			if w.visited[v] != w.epoch {
				w.visited[v] = w.epoch
				w.touched = append(w.touched, v)
				w.dist[v] = d
				w.parent[v] = a
				w.pq.push(v, d)
			} else if d < w.dist[v] {
				w.dist[v] = d
				w.parent[v] = a
				w.pq.push(v, d)
			}
		}
	}
	if best == flow.InvalidNode {
		return flow.InvalidNode, false
	}
	return best, true
}

// repriceAndAugment applies a completed search: reprice so path arcs become
// zero reduced cost — the textbook update raises every settled node's
// potential by D - min(d(v), D), where D is the nearest deficit's distance
// — then augment along the parent pointers. Only the nodes the search
// actually labeled can satisfy d(v) < D, so repricing walks the search's
// touched list rather than every node of the graph.
//
//firmament:hotpath
func (w *sspSearch) repriceAndAugment(g *flow.Graph, src, target flow.NodeID, excess []int64) {
	d := w.dist[target]
	for _, v := range w.touched {
		if w.dist[v] < d {
			g.SetPotential(v, g.Potential(v)+d-w.dist[v])
		}
	}
	delta := min64(excess[src], -excess[target])
	for v := target; v != src; {
		a := w.parent[v]
		if r := g.Resid(a); r < delta {
			delta = r
		}
		v = g.Tail(a)
	}
	for v := target; v != src; {
		a := w.parent[v]
		g.Push(a, delta)
		v = g.Tail(a)
	}
	excess[src] -= delta
	excess[target] += delta
}

// nodeDist is a (node, distance) pair ordered by distance.
type nodeDist struct {
	node flow.NodeID
	dist int64
}

// distHeap is a hand-rolled binary min-heap of nodeDist shared by the
// Dijkstra searches in SSP and cost scaling's price update. container/heap
// boxes every pushed element into an interface value, which at the ~10⁵
// pushes of a single solve dominated the allocation profile; a typed heap
// allocates only when its backing array grows, which the owning solver
// retains across runs.
type distHeap struct {
	items []nodeDist
}

func (h *distHeap) reset()    { h.items = h.items[:0] }
func (h *distHeap) size() int { return len(h.items) }

func (h *distHeap) push(n flow.NodeID, d int64) {
	h.items = append(h.items, nodeDist{n, d})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() nodeDist {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].dist < h.items[smallest].dist {
			smallest = l
		}
		if r < last && h.items[r].dist < h.items[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
