package flow

// ChangeSet counts the mutations applied to a graph since the last solver
// run. No solver reads the mutations themselves: incremental cost scaling
// warm-starts from the flow and potentials already on the graph (paper
// §5.2), so the count is all a round reports.
type ChangeSet struct {
	n int
}

// Add counts one mutation.
func (cs *ChangeSet) Add() { cs.n++ }

// Len returns the number of counted mutations.
func (cs *ChangeSet) Len() int { return cs.n }

// Empty reports whether no mutations have been counted.
func (cs *ChangeSet) Empty() bool { return cs.n == 0 }

// Reset clears the count for the next scheduling round.
func (cs *ChangeSet) Reset() { cs.n = 0 }
