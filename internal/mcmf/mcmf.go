// Package mcmf holds the two min-cost max-flow algorithms the scheduler
// races (paper §4, §6.1), the solver interface they share, and price
// refine, which re-prices a finished relaxation solution so that the next
// incremental cost scaling run can start from a small epsilon (§6.2).
//
// Each algorithm lives in its own file:
//
//	costscale.go — cost scaling (Goldberg–Tarjan), worst case O(N²·M·log(N·C))
//	relax.go     — relaxation (Bertsekas–Tseng), worst case O(M³·C·U²)
//
// (Paper Table 1.) The paper's other two algorithms, cycle canceling and
// successive shortest path, are reference solvers for the Fig. 7
// comparison and the differential suite; they live in
// internal/experiments/solvers, outside what the service ships.
//
// All solvers mutate the *flow.Graph in place: flow lives in residual
// capacities and dual variables in node potentials, so that incremental
// solvers (§5.2) can warm-start from the previous solution.
package mcmf

import (
	"errors"
	"sync/atomic"
	"time"

	"firmament/internal/flow"
)

// ErrStopped is returned when a solve is cancelled through Options.Stop.
// The speculative solver pool cancels the losing algorithm this way (§6.1).
var ErrStopped = errors.New("mcmf: solve cancelled")

// ErrInfeasible is returned when no feasible flow exists (some supply cannot
// reach a deficit). Firmament's scheduling graphs are feasible by
// construction — unscheduled aggregators absorb any task — so in practice
// this indicates a policy bug.
var ErrInfeasible = errors.New("mcmf: no feasible flow exists")

// stopCheckInterval is how many units of solver work pass between
// cooperative cancellation checks. Every phase of a solve that can do more
// than that much work checks at this granularity, so a stopped solver
// returns within one interval of the flag being set — the §6.1 race waits
// for its loser before the round goes on.
const stopCheckInterval = 4096

// phase names a stretch of solver work with its own cancellation checks.
type phase uint8

const (
	phaseRelaxOpen   phase = iota // relaxation: the opening pass, which saturates
	phaseRelaxQueue               // relaxation: between iterations
	phaseRelaxTree                // relaxation: growing one iteration's tree
	phaseSaturate                 // cost scaling: a tier's sweep, which saturates
	phaseDischarge                // cost scaling: push-relabel discharge
	phasePriceUpdate              // cost scaling: the set-relabel Dijkstra
	numPhases
)

// Options configures a solve.
type Options struct {
	// Stop requests cooperative cancellation when set to true.
	Stop *atomic.Bool

	// Alpha is the cost scaling division factor for epsilon between
	// iterations. Zero selects the default (12, cs2's SCALE_DEFAULT — the
	// Quincy baseline configuration). The paper swept this factor and
	// found alpha=9 ~30% faster than the conservative alpha=2 schedule on
	// the Google workload (§7.2); with the byte-denominated cost ranges of
	// the locality policies, small alphas mean dozens of refine tiers that
	// each pay a full saturation scan and price update.
	Alpha int64

	// ArcPrioritization enables the relaxation heuristic of §5.3.1:
	// frontier arcs that lead to nodes with demand are explored first.
	ArcPrioritization bool

	// SnapshotHook, if non-nil, is invoked at safe points during the solve
	// (between primal iterations) with the elapsed time. The approximate-
	// solution experiment (Fig. 10) uses it to snapshot intermediate
	// placements. The graph is in a consistent (feasible or CS-respecting)
	// intermediate state during the call but must not be mutated.
	SnapshotHook func(elapsed time.Duration)

	// onPoll, if non-nil, observes every cancellation check of the phased
	// solvers before Stop is read (tests).
	onPoll func(phase)
}

func (o *Options) alpha() int64 {
	if o == nil || o.Alpha < 2 {
		return 12
	}
	return o.Alpha
}

func (o *Options) stopped() bool {
	return o != nil && o.Stop != nil && o.Stop.Load()
}

// poll is stopped for a check inside phase ph of relaxation or cost
// scaling. A solve it stops leaves the graph's flow and potentials
// mid-phase; the caller discards them (the §6.1 race re-clones the
// replica, or copies the winner's solution over the main graph).
func (o *Options) poll(ph phase) bool {
	if o == nil {
		return false
	}
	if o.onPoll != nil {
		o.onPoll(ph)
	}
	return o.Stop != nil && o.Stop.Load()
}

func (o *Options) snapshot(start time.Time) {
	if o != nil && o.SnapshotHook != nil {
		o.SnapshotHook(time.Since(start))
	}
}

// Result summarizes a completed solve.
type Result struct {
	Algorithm  string
	Cost       int64 // total cost of the final flow (paper Eq. 1)
	Runtime    time.Duration
	Iterations int64 // algorithm-specific primal/dual iteration count

	// FullRestart reports that an incremental solve could not use the
	// stored potentials and fell back to a from-scratch run. The serving
	// layer surfaces this in its stats: the crash-recovery smoke test
	// asserts that the first round after a restore warm-starts (no full
	// restart), which is the recovery win of the paper's Fig. 11 gap.
	FullRestart bool
}

// Solver is a from-scratch MCMF algorithm. Solve discards any prior flow
// and potentials on g and terminates with a feasible, optimal flow (or an
// error). Implementations must be deterministic for a given graph.
type Solver interface {
	Name() string
	Solve(g *flow.Graph, opts *Options) (Result, error)
}

// IncrementalSolver additionally supports warm-starting from the flow and
// potentials already present on the graph, repairing whatever feasibility or
// optimality the latest changes broke (paper §5.2, Table 3).
type IncrementalSolver interface {
	Solver
	SolveIncremental(g *flow.Graph, opts *Options) (Result, error)
}
