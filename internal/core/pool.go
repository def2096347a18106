package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// SolverMode selects which MCMF algorithms the pool runs.
type SolverMode uint8

// Solver modes.
const (
	// ModeFirmament speculatively executes from-scratch relaxation and
	// incremental cost scaling concurrently and takes whichever finishes
	// first (paper §6.1). This is Firmament's production configuration.
	ModeFirmament SolverMode = iota
	// ModeRelaxationOnly runs only from-scratch relaxation (the
	// "Relaxation only" line of Figures 16 and 18).
	ModeRelaxationOnly
	// ModeIncrementalCostScaling runs only incremental cost scaling.
	ModeIncrementalCostScaling
	// ModeQuincy runs only from-scratch cost scaling — the configuration
	// of Quincy's cs2 solver, used for all head-to-head Quincy
	// comparisons (paper §7.1).
	ModeQuincy
)

// String names the mode.
func (m SolverMode) String() string {
	switch m {
	case ModeFirmament:
		return "firmament"
	case ModeRelaxationOnly:
		return "relaxation-only"
	case ModeIncrementalCostScaling:
		return "incremental-cost-scaling"
	case ModeQuincy:
		return "quincy"
	default:
		return "unknown"
	}
}

// PoolResult reports a solver pool run.
type PoolResult struct {
	Winner          string        // algorithm whose solution was used
	Cost            int64         // total cost of the winning flow
	AlgorithmTime   time.Duration // runtime of the winning algorithm
	RelaxationTime  time.Duration // relaxation's runtime, or until a stopped run returned (0 if not run or failed)
	CostScalingTime time.Duration
	PriceRefineTime time.Duration

	// Incremental reports that this run's cost scaling attempt completed
	// as a true warm start (prior flow and potentials reused). FullRestart
	// reports that it completed only after falling back to a from-scratch
	// solve. An attempt that did not complete — stopped because relaxation
	// won the race, or failed — sets neither, and both are false in modes
	// that never run incremental cost scaling. A round with neither flag
	// is therefore not a cold restart: under ModeFirmament the share of
	// rounds with Incremental is about one minus relaxation's win share.
	// The crash-recovery smoke test watches FullRestart: a restored
	// server's first solve must not fall back (Fig. 11's ~70x gap is the
	// recovery win), so FullRestart there means the snapshot failed to
	// carry the solver state.
	Incremental bool
	FullRestart bool
}

// SolverPool orchestrates the speculative dual-algorithm execution of paper
// §6.1: relaxation usually wins, but incremental cost scaling bounds the
// placement latency in relaxation's edge cases (oversubscription, large
// arriving jobs). After each round the pool optionally applies price refine
// to the winning solution so that the next incremental cost scaling run can
// start from a small epsilon (§6.2, Figure 13).
type SolverPool struct {
	Mode SolverMode
	// PriceRefine enables the §6.2 state-transfer optimization
	// (default true via NewSolverPool).
	PriceRefine bool
	// Options are forwarded to the algorithms (alpha factor, arc
	// prioritization, snapshot hooks).
	Options mcmf.Options

	relax   *mcmf.Relaxation
	cs      *mcmf.CostScaling
	replica *flow.Graph   // reusable clone the race's from-scratch relaxation runs on
	scratch *mcmf.Scratch // pinned working storage for the per-round price refine
}

// NewSolverPool returns a pool in the given mode with price refine enabled.
func NewSolverPool(mode SolverMode) *SolverPool {
	return &SolverPool{
		Mode:        mode,
		PriceRefine: true,
		relax:       mcmf.NewRelaxation(),
		cs:          mcmf.NewCostScaling(),
		scratch:     mcmf.NewScratch(),
	}
}

// solveOutcome carries one algorithm's result across the race.
type solveOutcome struct {
	res mcmf.Result
	err error
}

// Solve runs the configured algorithm(s) on g and leaves the winning
// optimal flow on g. changes describes the graph deltas since the previous
// call (used by incremental cost scaling to pick its starting epsilon).
func (p *SolverPool) Solve(g *flow.Graph, changes *flow.ChangeSet) (PoolResult, error) {
	switch p.Mode {
	case ModeRelaxationOnly:
		res, err := p.relax.Solve(g, p.opts(nil))
		if err != nil {
			return PoolResult{}, err
		}
		return PoolResult{Winner: res.Algorithm, Cost: res.Cost,
			AlgorithmTime: res.Runtime, RelaxationTime: res.Runtime}, nil
	case ModeIncrementalCostScaling:
		res, err := p.cs.SolveIncremental(g, changes, p.opts(nil))
		if err != nil {
			return PoolResult{}, err
		}
		pr := p.refine(g, nil)
		return PoolResult{Winner: res.Algorithm, Cost: res.Cost,
			AlgorithmTime: res.Runtime, CostScalingTime: res.Runtime, PriceRefineTime: pr,
			Incremental: !res.FullRestart, FullRestart: res.FullRestart}, nil
	case ModeQuincy:
		res, err := p.cs.Solve(g, p.opts(nil))
		if err != nil {
			return PoolResult{}, err
		}
		return PoolResult{Winner: "cost-scaling (from scratch)", Cost: res.Cost,
			AlgorithmTime: res.Runtime, CostScalingTime: res.Runtime}, nil
	case ModeFirmament:
		return p.solveSpeculative(g, changes)
	default:
		return PoolResult{}, fmt.Errorf("core: unknown solver mode %d", p.Mode)
	}
}

// solveSpeculative implements the §6.1 race: incremental cost scaling runs
// in place on the main graph (warm-started from the previous round's winning
// flow and price-refined potentials), relaxation runs from scratch on a
// private replica, and the first to finish cancels the other. A cost
// scaling win leaves its solution where it belongs; only a relaxation win
// pays to copy the replica's flow and potentials back, which also
// overwrites whatever the stopped cost scaling run left on g.
func (p *SolverPool) solveSpeculative(g *flow.Graph, changes *flow.ChangeSet) (PoolResult, error) {
	// Repair the compact adjacency index once, up front: CloneInto copies
	// the repaired index into the replica, so neither racing solver pays a
	// rebuild, and each graph owns a private copy (no index state is shared
	// across the two goroutines). Relaxation discards flow and potentials,
	// but it needs the pre-solve problem, so the clone precedes the race.
	g.Adjacency()
	p.replica = g.CloneInto(p.replica)

	var stopRelax, stopCS atomic.Bool
	relaxCh := make(chan solveOutcome, 1)
	csCh := make(chan solveOutcome, 1)

	relaxStart := time.Now()
	go func() {
		res, err := p.relax.Solve(p.replica, p.opts(&stopRelax))
		relaxCh <- solveOutcome{res, err}
	}()
	go func() {
		res, err := p.cs.SolveIncremental(g, changes, p.opts(&stopCS))
		csCh <- solveOutcome{res, err}
	}()

	var relaxOut, csOut *solveOutcome
	var relaxElapsed time.Duration // stamped when relaxation's outcome arrives
	var winner *mcmf.Result
	var fromRelax bool
	for winner == nil && (relaxOut == nil || csOut == nil) {
		select {
		case out := <-relaxCh:
			relaxOut = &out
			relaxElapsed = time.Since(relaxStart)
			if out.err == nil {
				winner = &out.res
				fromRelax = true
				stopCS.Store(true)
			}
		case out := <-csCh:
			csOut = &out
			if out.err == nil {
				winner = &out.res
				stopRelax.Store(true)
			}
		}
	}
	// Wait for the loser so the graphs are quiescent before we touch them.
	if relaxOut == nil {
		out := <-relaxCh
		relaxOut = &out
		relaxElapsed = time.Since(relaxStart)
	}
	if csOut == nil {
		out := <-csCh
		csOut = &out
	}
	if winner == nil {
		// Both failed; surface the more interesting error.
		if relaxOut.err != nil && !errors.Is(relaxOut.err, mcmf.ErrStopped) {
			return PoolResult{}, relaxOut.err
		}
		return PoolResult{}, csOut.err
	}
	if fromRelax {
		// Install relaxation's solution over the stopped cost scaling run's
		// residuals and potentials.
		if err := g.CopyFlowAndPotentialsFrom(p.replica); err != nil {
			return PoolResult{}, fmt.Errorf("core: transferring relaxation solution: %w", err)
		}
	}
	pr := p.refine(g, nil)
	res := PoolResult{
		Winner:          winner.Algorithm,
		Cost:            winner.Cost,
		AlgorithmTime:   winner.Runtime,
		PriceRefineTime: pr,
	}
	if relaxOut.err == nil {
		res.RelaxationTime = relaxOut.res.Runtime
	} else if errors.Is(relaxOut.err, mcmf.ErrStopped) {
		// Report the time until the cancelled run actually stopped, not
		// until both goroutines were joined and the winner installed —
		// that window includes post-race bookkeeping the relaxation run
		// never saw.
		res.RelaxationTime = relaxElapsed
	}
	if csOut.err == nil {
		res.CostScalingTime = csOut.res.Runtime
		res.Incremental = !csOut.res.FullRestart
		res.FullRestart = csOut.res.FullRestart
	}
	return res, nil
}

// SolverScale returns the cost scaling solver's internal cost multiplier —
// persisted solver state the durable snapshot must carry: graph potentials
// are stored in this scaled domain, so restoring one without the other
// voids the warm start.
func (p *SolverPool) SolverScale() int64 { return p.cs.Scale() }

// RestoreSolverScale reinstates a persisted cost multiplier. Only the
// snapshot recovery path may call this, together with a graph restore.
func (p *SolverPool) RestoreSolverScale(s int64) { p.cs.SetScale(s) }

// refine applies price refine to the optimal solution on g, finding
// potentials that satisfy complementary slackness in cost scaling's scaled
// domain without modifying the flow (paper §6.2: done "before we apply the
// latest cluster changes", i.e. at the end of the round). Returns the time
// spent, zero if disabled.
func (p *SolverPool) refine(g *flow.Graph, stop *atomic.Bool) time.Duration {
	if !p.PriceRefine {
		return 0
	}
	start := time.Now()
	opts := p.opts(stop)
	p.scratch.PriceRefine(g, p.cs.ScaleFor(g), 0, opts)
	return time.Since(start)
}

func (p *SolverPool) opts(stop *atomic.Bool) *mcmf.Options {
	o := p.Options
	o.Stop = stop
	return &o
}
