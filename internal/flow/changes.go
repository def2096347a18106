package flow

// ChangeKind classifies a graph mutation between two solver runs. All
// cluster events reduce to the three change categories of paper §5.2 —
// supply changes, capacity changes, and cost changes — plus the structural
// add/remove events that induce them.
type ChangeKind uint8

// Change kinds.
const (
	ChangeAddNode ChangeKind = iota
	ChangeRemoveNode
	ChangeSupply
	ChangeAddArc
	ChangeRemoveArc
	ChangeArcCost
	ChangeArcCapacity
)

// String returns a short name for the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeAddNode:
		return "add-node"
	case ChangeRemoveNode:
		return "remove-node"
	case ChangeSupply:
		return "supply"
	case ChangeAddArc:
		return "add-arc"
	case ChangeRemoveArc:
		return "remove-arc"
	case ChangeArcCost:
		return "arc-cost"
	case ChangeArcCapacity:
		return "arc-capacity"
	default:
		return "unknown"
	}
}

// Change records a single mutation. Node is set for node changes, Arc for
// arc changes; Old and New carry the changed quantity (supply, cost or
// capacity) where applicable.
type Change struct {
	Kind     ChangeKind
	Node     NodeID
	Arc      ArcID
	Old, New int64
}

// ChangeSet accumulates the mutations applied to a graph since the last
// solver run, in application order.
type ChangeSet struct {
	changes []Change
}

// Record appends a change.
func (cs *ChangeSet) Record(c Change) {
	cs.changes = append(cs.changes, c)
}

// Len returns the number of recorded changes.
func (cs *ChangeSet) Len() int { return len(cs.changes) }

// Empty reports whether no changes have been recorded.
func (cs *ChangeSet) Empty() bool { return len(cs.changes) == 0 }

// Changes returns the recorded changes in application order. The returned
// slice aliases internal storage and is invalidated by Reset.
func (cs *ChangeSet) Changes() []Change { return cs.changes }

// Reset clears the set for the next scheduling round, retaining capacity.
func (cs *ChangeSet) Reset() {
	cs.changes = cs.changes[:0]
}
