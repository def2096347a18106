package mcmf

import (
	"time"

	"firmament/internal/flow"
)

// Relaxation implements the Bertsekas–Tseng relaxation algorithm (paper §4,
// [4; 5]). It maintains reduced cost optimality at every step (Table 2) and
// improves feasibility by growing, from a surplus node, a tree Z of nodes
// connected by zero-reduced-cost residual arcs:
//
//   - if a deficit node is labeled, flow is augmented along the tree path
//     (feasibility improves, potentials unchanged — dual step 1 of §4);
//   - if the surplus trapped in Z exceeds the residual capacity of the
//     zero-reduced-cost arcs leaving Z, the algorithm first saturates those
//     arcs (pushing flow out of Z without labeling — relaxation's
//     signature move that decouples feasibility from cost) and then raises
//     the potential of every node in Z by the smallest positive crossing
//     reduced cost, creating new zero-reduced-cost arcs (dual ascent —
//     step 2 of §4).
//
// Worst-case complexity O(M³·C·U²) — the worst bound in Table 1 — yet on
// uncontested scheduling graphs it routes most flow in a single pass and
// outperforms cost scaling by two orders of magnitude (Figure 7). Under
// contention (oversubscribed clusters, load-spreading policies) the trees
// grow large and runtime degrades sharply (Figures 8 and 9).
//
// Without the ArcPrioritization option, the zero-reduced-cost frontier is
// explored breadth-first (FIFO), the textbook RELAX discipline; on graphs
// with large zero-reduced-cost components every tree then visits much of
// the component before reaching a demand node. ArcPrioritization enables
// the §5.3.1 heuristic: frontier arcs whose head has a deficit go to a
// priority stack that is always popped first, and the remaining arcs are
// explored depth-first — the paper's "hybrid graph traversal that biases
// towards depth-first exploration when demand nodes can be reached, but
// uses breadth-first exploration otherwise". Firmament always runs
// relaxation with the heuristic enabled.
//
// Tree growth iterates the compact adjacency index (flow.Graph.Adjacency):
// labeling a node scans its whole out-row, and the contiguous row layout is
// what keeps that scan inside the cache.
type Relaxation struct {
	adj       flow.Adjacency
	excess    []int64
	labeled   []int32 // epoch at which the node joined Z
	joinDelta []int64 // cumulative ascent delta when the node joined
	parent    []flow.ArcID
	epoch     int32
	znodes    []flow.NodeID
	heap      arcHeap  // positive-reduced-cost crossing arcs
	zfront    arcDeque // zero-reduced-cost frontier arcs (LIFO: depth-first)
	zprio     arcDeque // frontier arcs leading to deficit nodes (AP, §5.3.1)
	queue     []flow.NodeID
	inQueue   []bool

	// Per-iteration tree state, held on the struct so that the label step
	// is a plain method (a closure here would heap-allocate its captures
	// once per iteration — thousands of times per solve).
	delta   int64 // cumulative dual ascent of the current tree
	surplus int64 // total excess trapped in Z
	zresid  int64 // residual capacity of zero-rc arcs leaving Z
	work    int   // tree-growth work since the last cancellation check
}

// NewRelaxation returns a relaxation solver.
func NewRelaxation() *Relaxation { return &Relaxation{} }

// Name implements Solver.
func (r *Relaxation) Name() string { return "relaxation" }

// Solve implements Solver: from-scratch run with zeroed flow and potentials.
func (r *Relaxation) Solve(g *flow.Graph, opts *Options) (Result, error) {
	start := time.Now()
	g.ResetFlow()
	g.ResetPotentials()
	return r.run(g, start, opts)
}

// SolveIncremental implements IncrementalSolver: it keeps the prior flow
// and potentials. Counter-intuitively this is often slower than solving
// from scratch — the close-to-optimal state contains large zero-reduced-
// cost trees that every new source must traverse (paper §5.2) — but the
// method is provided for completeness and for the experiments that
// demonstrate exactly that effect.
func (r *Relaxation) SolveIncremental(g *flow.Graph, changes *flow.ChangeSet, opts *Options) (Result, error) {
	return r.run(g, time.Now(), opts)
}

// run restores complementary slackness (saturating residual arcs with
// negative reduced cost), then processes surplus nodes until none remain.
func (r *Relaxation) run(g *flow.Graph, start time.Time, opts *Options) (Result, error) {
	bound := g.NodeIDBound()
	r.grow(bound)
	r.adj = g.Adjacency()
	// Enforce reduced cost optimality for the initial pseudoflow.
	pl := g.ArcPlanes()
	for a := 0; a < g.ArcIDBound(); a++ {
		arc := flow.ArcID(a)
		if g.ArcInUse(arc) && pl.Resid[arc] > 0 && g.ReducedCost(arc) < 0 {
			g.Push(arc, pl.Resid[arc])
		}
	}
	r.excess = g.ImbalancesInto(r.excess)
	r.work = 0
	r.queue = r.queue[:0]
	for i := 0; i < bound; i++ {
		r.inQueue[i] = false
	}
	for i := 0; i < bound; i++ {
		if r.excess[i] > 0 {
			r.enqueue(flow.NodeID(i))
		}
	}

	var iters int64
	// Index-based FIFO: popping via r.queue[1:] would slide the slice
	// forward and leak its capacity across runs, reallocating every solve.
	for qi := 0; qi < len(r.queue); qi++ {
		s := r.queue[qi]
		r.inQueue[s] = false
		if r.excess[s] <= 0 {
			continue
		}
		if opts.poll(phaseRelaxQueue) {
			return Result{}, ErrStopped
		}
		if err := r.iterate(g, s, opts); err != nil {
			return Result{}, err
		}
		if r.excess[s] > 0 {
			r.enqueue(s)
		}
		iters++
		if iters%64 == 0 {
			opts.snapshot(start)
		}
	}
	return Result{
		Algorithm:  r.Name(),
		Cost:       g.TotalCost(),
		Runtime:    time.Since(start),
		Iterations: iters,
	}, nil
}

// label adds u to the tree Z (reached via arc `via`, InvalidArc for the
// root) and classifies u's out-arcs into the zero-reduced-cost frontier,
// the positive-reduced-cost crossing heap, or — for complementary
// slackness violations — immediate saturation. It returns the number of
// arcs scanned.
//
//firmament:hotpath
func (r *Relaxation) label(g *flow.Graph, opts *Options, u flow.NodeID, via flow.ArcID) int {
	r.labeled[u] = r.epoch
	r.joinDelta[u] = r.delta
	r.parent[u] = via
	r.znodes = append(r.znodes, u)
	r.surplus += r.excess[u]
	pl := g.ArcPlanes()
	piU := g.Potential(u) // row-invariant: the scan never touches pi(u)
	row := r.adj.Out(u)
	for _, a := range row {
		res := pl.Resid[a]
		if res <= 0 {
			continue
		}
		v := pl.Head[a]
		if r.labeled[v] == r.epoch {
			continue
		}
		rc := pl.Cost[a] - piU + g.Potential(v) // u joined at current delta, so this is exact
		switch {
		case rc == 0:
			switch {
			case opts != nil && opts.ArcPrioritization && r.excess[v] < 0:
				r.zprio.pushFront(a)
			case opts != nil && opts.ArcPrioritization:
				r.zfront.pushFront(a) // hybrid: depth-first otherwise
			default:
				r.zfront.pushBack(a) // textbook: breadth-first
			}
			r.zresid += res
		case rc > 0:
			r.heap.push(rc+r.delta, a)
		default:
			// Complementary slackness violation: repair by saturation,
			// exactly as the initial enforcement pass would.
			g.Push(a, res)
			r.excess[u] -= res
			r.excess[v] += res
			r.surplus -= res
			if r.excess[v] > 0 {
				r.enqueue(v)
			}
		}
	}
	return len(row)
}

// spend counts n units of tree-growth work (arcs scanned or popped) and
// reports, once per stopCheckInterval units, whether the solve must stop.
//
//firmament:hotpath
func (r *Relaxation) spend(n int, opts *Options) bool {
	if r.work += n; r.work < stopCheckInterval {
		return false
	}
	r.work = 0
	return opts.poll(phaseRelaxTree)
}

// finish applies the accumulated dual ascent to every node of the current
// tree: each gets the delta accrued since it joined.
//
//firmament:hotpath
func (r *Relaxation) finish(g *flow.Graph) {
	for _, z := range r.znodes {
		g.SetPotential(z, g.Potential(z)+r.delta-r.joinDelta[z])
	}
}

// iterate performs one relaxation iteration rooted at surplus node s: grow
// the zero-reduced-cost tree until either a deficit node is labeled (then
// augment) or the trapped surplus exceeds the zero-cost out-capacity (then
// saturate-and-ascend), repeating ascents until an augmentation happens or
// the surplus has been pushed out of Z entirely. It checks for
// cancellation as the tree grows (spend) and returns ErrStopped mid-tree.
//
//firmament:hotpath
func (r *Relaxation) iterate(g *flow.Graph, s flow.NodeID, opts *Options) error {
	r.epoch++
	r.znodes = r.znodes[:0]
	r.heap.reset()
	r.zfront.reset()
	r.zprio.reset()
	r.delta, r.surplus, r.zresid = 0, 0, 0

	if r.spend(r.label(g, opts, s, flow.InvalidArc), opts) {
		return ErrStopped
	}
	for {
		if r.surplus <= 0 {
			// All trapped surplus was pushed out of Z by saturations.
			r.finish(g)
			return nil
		}
		if r.surplus > r.zresid {
			// Relaxation step: saturate every zero-rc arc leaving Z, ...
			fronts := [2]*arcDeque{&r.zprio, &r.zfront} // array, not slice: no heap allocation
			for _, front := range fronts[:] {
				for front.len() > 0 {
					if r.spend(1, opts) {
						return ErrStopped
					}
					a := front.popFront()
					v := g.Head(a)
					if r.labeled[v] == r.epoch {
						continue
					}
					res := g.Resid(a)
					if res <= 0 {
						continue
					}
					u := g.Tail(a)
					g.Push(a, res)
					r.excess[u] -= res
					r.excess[v] += res
					r.surplus -= res
					if r.excess[v] > 0 {
						r.enqueue(v)
					}
				}
			}
			r.zresid = 0
			if r.surplus <= 0 {
				r.finish(g)
				return nil
			}
			// ... then ascend: raise Z's potential by the smallest positive
			// crossing reduced cost.
			stale := true
			for stale {
				if r.spend(1, opts) {
					return ErrStopped
				}
				top, ok := r.heap.peek()
				if !ok {
					r.finish(g)
					return ErrInfeasible
				}
				if r.labeled[g.Head(top.arc)] == r.epoch || g.Resid(top.arc) <= 0 {
					r.heap.pop()
					continue
				}
				stale = false
			}
			top, _ := r.heap.peek()
			r.delta = top.key // effective rc of top becomes zero
			// Move every now-zero crossing arc to the frontier.
			for {
				if r.spend(1, opts) {
					return ErrStopped
				}
				t, ok := r.heap.peek()
				if !ok || t.key > r.delta {
					break
				}
				r.heap.pop()
				v := g.Head(t.arc)
				if r.labeled[v] == r.epoch || g.Resid(t.arc) <= 0 {
					continue
				}
				switch {
				case opts != nil && opts.ArcPrioritization && r.excess[v] < 0:
					r.zprio.pushFront(t.arc)
				case opts != nil && opts.ArcPrioritization:
					r.zfront.pushFront(t.arc)
				default:
					r.zfront.pushBack(t.arc)
				}
				r.zresid += g.Resid(t.arc)
			}
			continue
		}
		// Extension step: take a zero-rc frontier arc and label its head,
		// preferring arcs that lead to demand (AP priority stack).
		if r.zprio.len() == 0 && r.zfront.len() == 0 {
			// Counters said capacity exists but entries were stale; force
			// the ascent path on the next loop.
			r.zresid = 0
			continue
		}
		var a flow.ArcID
		if r.zprio.len() > 0 {
			a = r.zprio.popFront()
		} else {
			a = r.zfront.popFront()
		}
		res := g.Resid(a)
		r.zresid -= res
		if r.zresid < 0 {
			r.zresid = 0
		}
		v := g.Head(a)
		if r.labeled[v] == r.epoch || res <= 0 {
			continue
		}
		if r.excess[v] < 0 {
			// Deficit reached: augment along the tree path s -> v. The
			// root's surplus can have been pushed out entirely by earlier
			// saturations; in that case the iteration already made
			// feasibility progress and there is nothing left to augment.
			if r.excess[s] <= 0 {
				r.finish(g)
				return nil
			}
			r.parent[v] = a
			r.labeled[v] = r.epoch // mark for completeness
			r.joinDelta[v] = r.delta
			amt := min64(r.excess[s], -r.excess[v])
			for x := v; x != s; {
				pa := r.parent[x]
				if rr := g.Resid(pa); rr < amt {
					amt = rr
				}
				x = g.Tail(pa)
			}
			for x := v; x != s; {
				pa := r.parent[x]
				g.Push(pa, amt)
				x = g.Tail(pa)
			}
			r.excess[s] -= amt
			r.excess[v] += amt
			// v joined Z after the last ascent, so no potential adjustment
			// accrues to it; drop it from znodes bookkeeping by leaving
			// joinDelta[v] = delta.
			r.znodes = append(r.znodes, v)
			r.finish(g)
			return nil
		}
		if r.spend(1+r.label(g, opts, v, a), opts) {
			return ErrStopped
		}
	}
}

//firmament:hotpath
func (r *Relaxation) enqueue(id flow.NodeID) {
	if !r.inQueue[id] {
		r.queue = append(r.queue, id)
		r.inQueue[id] = true
	}
}

func (r *Relaxation) grow(n int) {
	if len(r.labeled) < n {
		r.labeled = make([]int32, n)
		r.joinDelta = make([]int64, n)
		r.parent = make([]flow.ArcID, n)
		r.inQueue = make([]bool, n)
		r.epoch = 0
	}
}

var _ IncrementalSolver = (*Relaxation)(nil)

// arcEntry is a heap element: a crossing arc keyed by its reduced cost at
// insertion time plus the cumulative ascent delta at insertion, so that a
// single global delta offset keeps all keys comparable.
type arcEntry struct {
	key int64
	arc flow.ArcID
}

// arcHeap is a binary min-heap of arcEntry.
type arcHeap struct {
	items []arcEntry
}

func (h *arcHeap) reset()    { h.items = h.items[:0] }
func (h *arcHeap) size() int { return len(h.items) }

func (h *arcHeap) push(key int64, a flow.ArcID) {
	h.items = append(h.items, arcEntry{key, a})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].key <= h.items[i].key {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *arcHeap) peek() (arcEntry, bool) {
	if len(h.items) == 0 {
		return arcEntry{}, false
	}
	return h.items[0], true
}

func (h *arcHeap) pop() (arcEntry, bool) {
	if len(h.items) == 0 {
		return arcEntry{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].key < h.items[smallest].key {
			smallest = l
		}
		if rt < last && h.items[rt].key < h.items[smallest].key {
			smallest = rt
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top, true
}

// arcDeque is a growable ring buffer of ArcIDs supporting O(1) operations at
// both ends; the arc prioritization heuristic pushes demand-leading arcs to
// the front and everything else to the back.
type arcDeque struct {
	buf        []flow.ArcID
	head, size int
}

func (d *arcDeque) reset()   { d.head, d.size = 0, 0 }
func (d *arcDeque) len() int { return d.size }

func (d *arcDeque) growIfFull() {
	if d.size < len(d.buf) {
		return
	}
	n := len(d.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]flow.ArcID, n)
	for i := 0; i < d.size; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

func (d *arcDeque) pushBack(a flow.ArcID) {
	d.growIfFull()
	d.buf[(d.head+d.size)%len(d.buf)] = a
	d.size++
}

func (d *arcDeque) pushFront(a flow.ArcID) {
	d.growIfFull()
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = a
	d.size++
}

func (d *arcDeque) popFront() flow.ArcID {
	a := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.size--
	return a
}
