// Package flow implements the directed flow network over which Firmament's
// min-cost max-flow (MCMF) solvers operate (paper §3.2, §4).
//
// The representation is the classic paired-arc residual network: every call
// to AddArc creates a forward arc at an even index a and its residual
// reverse arc at a^1, with negated cost and zero initial residual capacity.
// Flow on a forward arc is therefore the residual capacity of its partner,
// and solvers manipulate flow purely by moving residual capacity between the
// two partners. Node potentials (the dual variables pi of paper Eq. 4) are
// stored on the nodes so that incremental solvers can warm-start from the
// previous run's state (paper §5.2).
//
// Nodes and arcs are recycled through free lists: cluster schedulers remove
// task nodes at completion and machine nodes at failure thousands of times
// per minute, and the graph must not grow without bound.
//
// # Structure-of-arrays arc store
//
// Arc data lives in flat per-field planes indexed by ArcID (arcHead,
// arcResid, arcCost, plus the arcNext/arcPrev/arcAlive bookkeeping), the
// cs2/LEMON-style layout, instead of a slice of 40-byte arc structs. The
// MCMF hot loops each touch only a subset of the fields — a residual scan
// reads resid alone, a reduced-cost scan reads cost and head — so per-plane
// slices put 8 arcs on a cache line where the struct layout managed 1.6,
// and the pairwise sweeps (refine saturation, maxViolation, TotalCost,
// Imbalances, ResetFlow) become linear walks over dense memory. Arc IDs are
// assigned in insertion order and the compact adjacency rows preserve it,
// so row iteration reads near-sequential plane entries too.
//
// # Dual adjacency representation
//
// The graph keeps adjacency twice. The doubly-linked per-node arc list
// (FirstOut/NextOut, stored in the arcNext/arcPrev planes) is the mutable
// source of truth: O(1) arc insertion and removal, which the scheduler's
// per-round churn needs. Layered on top is a compact CSR-style index
// (Adjacency) — per-node contiguous []ArcID rows — which is what the MCMF
// solvers iterate: walking a linked list through the shared planes
// serializes the solver hot path behind dependent loads, while contiguous
// rows let the CPU prefetch and pipeline them.
//
// The index is maintained lazily. Structural mutations (AddNode, AddArc,
// RemoveArc, RemoveNode) mark only the touched tails dirty; the next
// Adjacency() call repairs just those rows, so a steady-state scheduling
// round with a small ChangeSet pays O(changed) rather than O(M) to refresh
// the index. Flow pushes and cost/capacity/supply/potential updates leave
// the index untouched. See adjacency.go for the invalidation rules in
// detail.
package flow

import "fmt"

// NodeID identifies a node in a Graph. IDs are dense small integers so that
// solvers can use them to index scratch arrays directly.
type NodeID int32

// ArcID identifies a directed arc. Forward arcs have even IDs; the reverse
// residual partner of arc a is always a^1.
type ArcID int32

// InvalidNode and InvalidArc are the sentinel "no such" values.
const (
	InvalidNode NodeID = -1
	InvalidArc  ArcID  = -1
)

// NodeKind labels the scheduling role of a node. The flow package does not
// interpret kinds; they exist so that the scheduler core and debugging output
// can identify nodes without a side table, and so that placement extraction
// (paper Listing 1) can stop at task nodes.
type NodeKind uint8

// Node kinds used by the Firmament scheduling graphs (paper Fig. 5, Fig. 6).
const (
	KindOther NodeKind = iota
	KindTask
	KindMachine
	KindAggregator
	KindUnsched
	KindSink
)

// String returns a short human-readable name for the kind.
func (k NodeKind) String() string {
	switch k {
	case KindTask:
		return "task"
	case KindMachine:
		return "machine"
	case KindAggregator:
		return "aggregator"
	case KindUnsched:
		return "unsched"
	case KindSink:
		return "sink"
	default:
		return "other"
	}
}

// node is the internal node record. Adjacency is a doubly-linked list of
// outgoing arcs (which includes reverse residual arcs, as solvers need to
// traverse the full residual network from a node).
type node struct {
	firstOut  ArcID
	supply    int64
	potential int64
	kind      NodeKind
	inUse     bool
}

// Graph is a directed flow network with supplies, capacities and costs. The
// zero value is not usable; call NewGraph.
//
// Graph is not safe for concurrent mutation. The speculative solver pool
// clones the graph so each algorithm owns a private replica (paper §6.1 runs
// the two algorithms in separate address spaces).
type Graph struct {
	nodes []node

	// Arc planes, all indexed by ArcID and always equal in length. For a
	// forward arc a, arcResid[a]+arcResid[a^1] is the pair's capacity and
	// arcResid[a^1] its flow; arcCost[a^1] == -arcCost[a].
	arcHead  []NodeID
	arcNext  []ArcID // next outgoing arc of the same tail
	arcPrev  []ArcID // previous outgoing arc of the same tail
	arcResid []int64
	arcCost  []int64
	arcAlive []bool

	freeNodes []NodeID
	freeArcs  []ArcID // forward (even) IDs of freed pairs
	numNodes  int
	numArcs   int      // number of live forward arcs
	adj       adjIndex // lazily-repaired compact adjacency (adjacency.go)

	// Exact incremental max-|cost| tracking over live forward arcs, so that
	// cost scaling's initial epsilon does not pay an O(M) scan per solve
	// (paper §6.2 warm starts run every round). costMaxCount counts live
	// forward arcs whose |cost| equals costMax; when it drops to zero the
	// maximum is stale and the next MaxAbsCost call rescans.
	costMax      int64
	costMaxCount int
	costMaxStale bool

	removeScratch []ArcID // reusable pair buffer for RemoveNode
}

// NewGraph returns an empty graph. The hint sizes pre-allocate internal
// storage; pass zeros if unknown.
func NewGraph(nodeHint, arcHint int) *Graph {
	return &Graph{
		nodes:    make([]node, 0, nodeHint),
		arcHead:  make([]NodeID, 0, 2*arcHint),
		arcNext:  make([]ArcID, 0, 2*arcHint),
		arcPrev:  make([]ArcID, 0, 2*arcHint),
		arcResid: make([]int64, 0, 2*arcHint),
		arcCost:  make([]int64, 0, 2*arcHint),
		arcAlive: make([]bool, 0, 2*arcHint),
	}
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumArcs returns the number of live forward arcs.
func (g *Graph) NumArcs() int { return g.numArcs }

// NodeIDBound returns an exclusive upper bound on live node IDs, suitable
// for sizing solver scratch arrays indexed by NodeID.
func (g *Graph) NodeIDBound() int { return len(g.nodes) }

// ArcIDBound returns an exclusive upper bound on live arc IDs (forward and
// reverse), suitable for sizing solver scratch arrays indexed by ArcID.
func (g *Graph) ArcIDBound() int { return len(g.arcHead) }

// ArcPlanes is a read-only view of the hot arc data planes, handed to solver
// inner loops so they can index arc fields without going through the graph
// pointer on every access. The slices alias graph storage: they stay valid
// until the next structural mutation (AddArc/RemoveArc/AddNode/RemoveNode)
// and must not be written. Resid entries change under the owner's Push;
// Cost and Head are stable during a solve.
type ArcPlanes struct {
	Head  []NodeID
	Resid []int64
	Cost  []int64
}

// ArcPlanes returns the current plane view.
func (g *Graph) ArcPlanes() ArcPlanes {
	return ArcPlanes{Head: g.arcHead, Resid: g.arcResid, Cost: g.arcCost}
}

// AddNode creates a node with the given supply (positive for sources,
// negative for sinks) and kind, and returns its ID.
func (g *Graph) AddNode(supply int64, kind NodeKind) NodeID {
	var id NodeID
	if n := len(g.freeNodes); n > 0 {
		id = g.freeNodes[n-1]
		g.freeNodes = g.freeNodes[:n-1]
	} else {
		g.nodes = append(g.nodes, node{})
		id = NodeID(len(g.nodes) - 1)
	}
	g.nodes[id] = node{firstOut: InvalidArc, supply: supply, kind: kind, inUse: true}
	g.numNodes++
	g.adjTouch(id)
	return id
}

// RemoveNode deletes a node and every arc incident to it. Any flow carried
// by those arcs vanishes with them; callers that need to preserve
// feasibility must drain the node's flow first (see the efficient task
// removal heuristic, paper §5.3.2, implemented in the scheduler core).
func (g *Graph) RemoveNode(id NodeID) {
	g.mustLiveNode(id, "RemoveNode")
	// Removing arcs mutates the adjacency list we are iterating, so collect
	// first into a graph-held scratch buffer (task completion calls this
	// thousands of times per minute; a fresh slice per call would churn the
	// allocator). Every incident arc (in or out) appears in this node's out
	// list: out-arcs directly, in-arcs via their reverse partner.
	pairs := g.removeScratch[:0]
	for a := g.nodes[id].firstOut; a != InvalidArc; a = g.arcNext[a] {
		pairs = append(pairs, a&^1)
	}
	g.removeScratch = pairs
	for _, a := range pairs {
		g.RemoveArc(a)
	}
	g.nodes[id].inUse = false
	g.freeNodes = append(g.freeNodes, id)
	g.numNodes--
	g.adjTouch(id)
}

// NodeInUse reports whether id refers to a live node.
func (g *Graph) NodeInUse(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes) && g.nodes[id].inUse
}

// AddArc creates a forward arc tail->head with the given capacity and cost,
// plus its reverse residual partner, and returns the forward arc's ID.
func (g *Graph) AddArc(tail, head NodeID, capacity, cost int64) ArcID {
	g.mustLiveNode(tail, "AddArc tail")
	g.mustLiveNode(head, "AddArc head")
	if capacity < 0 {
		panic(fmt.Sprintf("flow: AddArc capacity %d < 0", capacity))
	}
	var fwd ArcID
	if n := len(g.freeArcs); n > 0 {
		fwd = g.freeArcs[n-1]
		g.freeArcs = g.freeArcs[:n-1]
	} else {
		g.arcHead = append(g.arcHead, 0, 0)
		g.arcNext = append(g.arcNext, 0, 0)
		g.arcPrev = append(g.arcPrev, 0, 0)
		g.arcResid = append(g.arcResid, 0, 0)
		g.arcCost = append(g.arcCost, 0, 0)
		g.arcAlive = append(g.arcAlive, false, false)
		fwd = ArcID(len(g.arcHead) - 2)
	}
	rev := fwd ^ 1
	g.arcHead[fwd], g.arcResid[fwd], g.arcCost[fwd], g.arcAlive[fwd] = head, capacity, cost, true
	g.arcHead[rev], g.arcResid[rev], g.arcCost[rev], g.arcAlive[rev] = tail, 0, -cost, true
	g.linkOut(tail, fwd)
	g.linkOut(head, rev)
	g.numArcs++
	g.costMaxAdd(cost)
	g.adjTouch(tail)
	g.adjTouch(head)
	return fwd
}

// RemoveArc deletes a forward arc and its reverse partner. Flow on the arc
// vanishes; as with RemoveNode, preserving feasibility is the caller's job.
// Accepts either the forward or the reverse ID.
func (g *Graph) RemoveArc(a ArcID) {
	fwd := a &^ 1
	g.mustLiveArc(fwd, "RemoveArc")
	rev := fwd ^ 1
	tail, head := g.arcHead[rev], g.arcHead[fwd]
	g.unlinkOut(tail, fwd)
	g.unlinkOut(head, rev)
	g.arcAlive[fwd] = false
	g.arcAlive[rev] = false
	g.freeArcs = append(g.freeArcs, fwd)
	g.numArcs--
	g.costMaxDrop(g.arcCost[fwd])
	g.adjTouch(tail)
	g.adjTouch(head)
}

// ArcInUse reports whether a refers to a live arc (forward or reverse).
func (g *Graph) ArcInUse(a ArcID) bool {
	return a >= 0 && int(a) < len(g.arcAlive) && g.arcAlive[a]
}

// IsForward reports whether a is a forward (original) arc rather than a
// residual reverse partner.
func (g *Graph) IsForward(a ArcID) bool { return a&1 == 0 }

// Reverse returns the residual partner of a.
func (g *Graph) Reverse(a ArcID) ArcID { return a ^ 1 }

// linkOut pushes arc a onto the front of n's outgoing adjacency list.
func (g *Graph) linkOut(n NodeID, a ArcID) {
	first := g.nodes[n].firstOut
	g.arcNext[a] = first
	g.arcPrev[a] = InvalidArc
	if first != InvalidArc {
		g.arcPrev[first] = a
	}
	g.nodes[n].firstOut = a
}

// unlinkOut removes arc a from n's outgoing adjacency list.
func (g *Graph) unlinkOut(n NodeID, a ArcID) {
	prev, next := g.arcPrev[a], g.arcNext[a]
	if prev != InvalidArc {
		g.arcNext[prev] = next
	} else {
		g.nodes[n].firstOut = next
	}
	if next != InvalidArc {
		g.arcPrev[next] = prev
	}
}

// FirstOut returns the first arc (forward or residual) leaving n, or
// InvalidArc. Together with NextOut it iterates n's residual adjacency.
func (g *Graph) FirstOut(n NodeID) ArcID { return g.nodes[n].firstOut }

// NextOut returns the arc after a in the tail's adjacency list.
func (g *Graph) NextOut(a ArcID) ArcID { return g.arcNext[a] }

// Head returns the destination of arc a.
func (g *Graph) Head(a ArcID) NodeID { return g.arcHead[a] }

// Tail returns the origin of arc a.
func (g *Graph) Tail(a ArcID) NodeID { return g.arcHead[a^1] }

// Cost returns the cost of arc a (negated on reverse arcs).
func (g *Graph) Cost(a ArcID) int64 { return g.arcCost[a] }

// Resid returns the residual capacity of arc a.
func (g *Graph) Resid(a ArcID) int64 { return g.arcResid[a] }

// Capacity returns the total capacity of the forward arc of a's pair.
func (g *Graph) Capacity(a ArcID) int64 {
	fwd := a &^ 1
	return g.arcResid[fwd] + g.arcResid[fwd^1]
}

// Flow returns the flow on the forward arc of a's pair.
func (g *Graph) Flow(a ArcID) int64 { return g.arcResid[(a&^1)^1] }

// Push moves amt units of flow along arc a (forward or residual). It panics
// if amt exceeds the residual capacity.
func (g *Graph) Push(a ArcID, amt int64) {
	if amt < 0 || amt > g.arcResid[a] {
		panic(fmt.Sprintf("flow: Push %d on arc %d with residual %d", amt, a, g.arcResid[a]))
	}
	g.arcResid[a] -= amt
	g.arcResid[a^1] += amt
}

// ReducedCost returns cost(a) - pi(tail) + pi(head), the reduced cost of
// paper Eq. 4.
func (g *Graph) ReducedCost(a ArcID) int64 {
	return g.arcCost[a] - g.nodes[g.arcHead[a^1]].potential + g.nodes[g.arcHead[a]].potential
}

// Supply returns node n's supply b(n).
func (g *Graph) Supply(n NodeID) int64 { return g.nodes[n].supply }

// SetSupply replaces node n's supply.
func (g *Graph) SetSupply(n NodeID, s int64) {
	g.mustLiveNode(n, "SetSupply")
	g.nodes[n].supply = s
}

// Potential returns node n's dual potential pi(n).
func (g *Graph) Potential(n NodeID) int64 { return g.nodes[n].potential }

// SetPotential replaces node n's potential.
func (g *Graph) SetPotential(n NodeID, p int64) { g.nodes[n].potential = p }

// Kind returns node n's scheduling kind label.
func (g *Graph) Kind(n NodeID) NodeKind { return g.nodes[n].kind }

// SetArcCost changes the cost of the forward arc of a's pair (and its
// reverse partner's negated copy). Whether this invalidates an existing
// optimal flow depends on the sign change of the reduced cost (paper
// Table 3); solvers detect violations by scanning.
func (g *Graph) SetArcCost(a ArcID, cost int64) {
	fwd := a &^ 1
	g.mustLiveArc(fwd, "SetArcCost")
	g.costMaxDrop(g.arcCost[fwd])
	g.arcCost[fwd] = cost
	g.arcCost[fwd^1] = -cost
	g.costMaxAdd(cost)
}

// SetArcCapacity changes the capacity of the forward arc of a's pair. If
// existing flow exceeds the new capacity the surplus flow is cancelled so
// that 0 <= flow <= capacity always holds; the resulting mass-balance
// violation at the endpoints (paper Table 3: decreasing capacity can break
// feasibility) surfaces through the imbalance scan that incremental solvers
// perform.
func (g *Graph) SetArcCapacity(a ArcID, capacity int64) {
	fwd := a &^ 1
	g.mustLiveArc(fwd, "SetArcCapacity")
	if capacity < 0 {
		panic(fmt.Sprintf("flow: SetArcCapacity %d < 0", capacity))
	}
	rev := fwd ^ 1
	flow := g.arcResid[rev]
	if flow > capacity {
		g.arcResid[rev] = capacity
		flow = capacity
	}
	g.arcResid[fwd] = capacity - flow
}

// MaxAbsCost returns the largest absolute cost over live forward arcs (zero
// for an arcless graph). The value is tracked incrementally under AddArc,
// RemoveArc and SetArcCost, so steady-state calls are O(1); only when every
// arc carrying the previous maximum has been removed or repriced does a
// call rescan the cost plane. Cost scaling derives its initial epsilon from
// this — formerly an O(M) sweep on every solve.
func (g *Graph) MaxAbsCost() int64 {
	if g.costMaxStale {
		g.costMax, g.costMaxCount = 0, 0
		for a := 0; a < len(g.arcCost); a += 2 {
			if !g.arcAlive[a] {
				continue
			}
			c := g.arcCost[a]
			if c < 0 {
				c = -c
			}
			if c > g.costMax {
				g.costMax, g.costMaxCount = c, 1
			} else if c == g.costMax {
				g.costMaxCount++
			}
		}
		g.costMaxStale = false
	}
	return g.costMax
}

// costMaxAdd folds a newly live forward-arc cost into the tracked maximum.
// A stale maximum stays stale (the pending rescan will see this arc).
func (g *Graph) costMaxAdd(cost int64) {
	if cost < 0 {
		cost = -cost
	}
	if g.costMaxStale {
		return
	}
	if cost > g.costMax {
		g.costMax, g.costMaxCount = cost, 1
	} else if cost == g.costMax {
		g.costMaxCount++
	}
}

// costMaxDrop removes a no-longer-live forward-arc cost from the tracked
// maximum, marking it stale when the last arc at the maximum goes away.
func (g *Graph) costMaxDrop(cost int64) {
	if g.costMaxStale {
		return
	}
	if cost < 0 {
		cost = -cost
	}
	if cost == g.costMax {
		g.costMaxCount--
		if g.costMaxCount <= 0 {
			g.costMaxStale = true
		}
	}
}

// Nodes calls fn for every live node. Iteration order is unspecified.
func (g *Graph) Nodes(fn func(NodeID)) {
	for i := range g.nodes {
		if g.nodes[i].inUse {
			fn(NodeID(i))
		}
	}
}

// ForwardArcs calls fn for every live forward arc.
func (g *Graph) ForwardArcs(fn func(ArcID)) {
	for i := 0; i < len(g.arcAlive); i += 2 {
		if g.arcAlive[i] {
			fn(ArcID(i))
		}
	}
}

func (g *Graph) mustLiveNode(id NodeID, op string) {
	if !g.NodeInUse(id) {
		panic(fmt.Sprintf("flow: %s on dead or invalid node %d", op, id))
	}
}

func (g *Graph) mustLiveArc(a ArcID, op string) {
	if !g.ArcInUse(a) {
		panic(fmt.Sprintf("flow: %s on dead or invalid arc %d", op, a))
	}
}
