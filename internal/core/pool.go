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
	// ModeFirmament speculatively executes relaxation and incremental cost
	// scaling concurrently and takes whichever finishes first (paper
	// §6.1). Relaxation starts warm on rounds that change little of the
	// graph and from scratch otherwise (warmRelaxArcsPerChange). This is
	// Firmament's production configuration.
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
// arriving jobs). After each round the pool applies price refine to the
// winning solution so that the next incremental cost scaling run can
// start from a small epsilon (§6.2, Figure 13).
type SolverPool struct {
	Mode SolverMode
	// Options are forwarded to the algorithms (alpha factor, arc
	// prioritization, snapshot hooks).
	Options mcmf.Options

	relax   *mcmf.Relaxation
	cs      *mcmf.CostScaling
	replica *flow.Graph   // reused replica the race's relaxation runs on
	scratch *mcmf.Scratch // pinned working storage for the per-round price refine
	// relaxScale is how the race's relaxation starts: 0 from scratch, or
	// warm from the replica's potentials unscaled by this cost scaling
	// scale. It is set before the goroutines start, because the racing
	// cost scaling run may rescale.
	relaxScale int64

	// The race's working state lives on the pool, so that a racing solve
	// allocates nothing but its two goroutine starts: each solver's
	// Options (Options plus the solver's stop flag), the stop flags, and
	// one buffered channel per solver that each round drains.
	relaxOpts, csOpts mcmf.Options
	stopRelax, stopCS atomic.Bool
	relaxCh, csCh     chan solveOutcome
}

// NewSolverPool returns a pool in the given mode, with relaxation's arc
// prioritization (§5.3.1) on.
func NewSolverPool(mode SolverMode) *SolverPool {
	return &SolverPool{
		Mode:    mode,
		Options: mcmf.Options{ArcPrioritization: true},
		relax:   mcmf.NewRelaxation(),
		cs:      mcmf.NewCostScaling(),
		scratch: mcmf.NewScratch(),
		relaxCh: make(chan solveOutcome, 1),
		csCh:    make(chan solveOutcome, 1),
	}
}

// solveOutcome carries one algorithm's result across the race.
type solveOutcome struct {
	res mcmf.Result
	err error
}

// warmRelaxArcsPerChange is the race's start rule for relaxation: it
// starts warm when the round's change count is at most the live arc count
// divided by this, and from scratch otherwise. A warm start pays on rounds
// that change little of the graph — §5.2's own condition for incremental
// solving (Fig. 11) — and loses when the changes reach much of it, because
// the near-optimal state's large zero-reduced-cost trees then lie in every
// new surplus's way. Measured per round on the benchmark's workloads, no
// Quincy round on 1,000 machines changed more than 6.4 % of the live arcs
// after set-up, and 99 % of the LoadSpread rounds on 64 machines that
// changed more than three things changed at least 36 %: a quarter sends
// the former warm and keeps the latter from scratch (docs/solver.md).
const warmRelaxArcsPerChange = 4

// warmRelaxation applies the start rule to a round that made changes to
// g. A nil count, or a pool whose cost scaling has never priced g (scale
// 0, so no potentials to start from), starts from scratch.
func (p *SolverPool) warmRelaxation(g *flow.Graph, changes *flow.ChangeSet) bool {
	return changes != nil && p.cs.Scale() > 0 &&
		changes.Len()*warmRelaxArcsPerChange <= g.NumArcs()
}

// Solve runs the configured algorithm(s) on g and leaves the winning
// optimal flow on g. changes counts the graph mutations since the previous
// call; under ModeFirmament it decides how the racing relaxation starts
// (warmRelaxation). Incremental cost scaling finds its starting epsilon by
// scanning g.
func (p *SolverPool) Solve(g *flow.Graph, changes *flow.ChangeSet) (PoolResult, error) {
	switch p.Mode {
	case ModeRelaxationOnly:
		res, err := p.relax.Solve(g, p.opts(&p.relaxOpts, nil))
		if err != nil {
			return PoolResult{}, err
		}
		return PoolResult{Winner: res.Algorithm, Cost: res.Cost,
			AlgorithmTime: res.Runtime, RelaxationTime: res.Runtime}, nil
	case ModeIncrementalCostScaling:
		res, err := p.cs.SolveIncremental(g, p.opts(&p.csOpts, nil))
		if err != nil {
			return PoolResult{}, err
		}
		pr := p.refine(g)
		return PoolResult{Winner: res.Algorithm, Cost: res.Cost,
			AlgorithmTime: res.Runtime, CostScalingTime: res.Runtime, PriceRefineTime: pr,
			Incremental: !res.FullRestart, FullRestart: res.FullRestart}, nil
	case ModeQuincy:
		res, err := p.cs.Solve(g, p.opts(&p.csOpts, nil))
		if err != nil {
			return PoolResult{}, err
		}
		return PoolResult{Winner: "cost-scaling (from scratch)", Cost: res.Cost,
			AlgorithmTime: res.Runtime, CostScalingTime: res.Runtime}, nil
	case ModeFirmament:
		return p.solveSpeculative(g, p.warmRelaxation(g, changes))
	default:
		return PoolResult{}, fmt.Errorf("core: unknown solver mode %d", p.Mode)
	}
}

// solveSpeculative implements the §6.1 race: incremental cost scaling runs
// in place on the main graph (warm-started from the previous round's winning
// flow and price-refined potentials), relaxation runs on a replica that
// shares g's structure — warm from the same flow and potentials if warm is
// set, from scratch otherwise — and the first to finish cancels the other.
// A cost scaling win leaves its solution where it belongs; only a
// relaxation win pays to copy the replica's flow and potentials back, which
// also overwrites whatever the stopped cost scaling run left on g.
func (p *SolverPool) solveSpeculative(g *flow.Graph, warm bool) (PoolResult, error) {
	// Relaxation writes only residuals and potentials, so its replica
	// shares g's structure and copies just those: ReplicaInto compacts the
	// rows once, up front, and neither racing solver writes them again.
	// Either start needs the pre-solve problem, and a warm one the
	// pre-solve flow and potentials, so the replica is taken before the
	// race.
	p.replica = g.ReplicaInto(p.replica)
	p.relaxScale = 0
	if warm {
		p.relaxScale = p.cs.Scale()
	}

	p.stopRelax.Store(false)
	p.stopCS.Store(false)
	p.opts(&p.relaxOpts, &p.stopRelax)
	p.opts(&p.csOpts, &p.stopCS)

	relaxStart := time.Now()
	go p.raceRelax()
	go p.raceCostScaling(g)

	var relaxOut, csOut solveOutcome
	var relaxDone, csDone, won, fromRelax bool
	var relaxElapsed time.Duration // stamped when relaxation's outcome arrives
	for !won && !(relaxDone && csDone) {
		select {
		case relaxOut = <-p.relaxCh:
			relaxDone = true
			relaxElapsed = time.Since(relaxStart)
			if relaxOut.err == nil {
				won, fromRelax = true, true
				p.stopCS.Store(true)
			}
		case csOut = <-p.csCh:
			csDone = true
			if csOut.err == nil {
				won = true
				p.stopRelax.Store(true)
			}
		}
	}
	// Wait for the loser so the graphs are quiescent before we touch them.
	if !relaxDone {
		relaxOut = <-p.relaxCh
		relaxElapsed = time.Since(relaxStart)
	}
	if !csDone {
		csOut = <-p.csCh
	}
	if !won {
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
	winner := csOut.res
	if fromRelax {
		winner = relaxOut.res
	}
	pr := p.refine(g)
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

// raceRelax runs the race's relaxation on the replica. A warm start first
// floor-divides the replica's price-refined potentials, which are in cost
// scaling's scaled domain, into relaxation's unscaled one; flooring keeps
// every residual arc's reduced cost non-negative (mcmf.UnscalePotentials),
// so the opening pass saturates only what the round's changes broke.
func (p *SolverPool) raceRelax() {
	var res mcmf.Result
	var err error
	if p.relaxScale > 0 {
		mcmf.UnscalePotentials(p.replica, p.relaxScale)
		res, err = p.relax.SolveIncremental(p.replica, &p.relaxOpts)
	} else {
		res, err = p.relax.Solve(p.replica, &p.relaxOpts)
	}
	p.relaxCh <- solveOutcome{res, err}
}

// raceCostScaling runs the race's incremental cost scaling on g in place.
func (p *SolverPool) raceCostScaling(g *flow.Graph) {
	res, err := p.cs.SolveIncremental(g, &p.csOpts)
	p.csCh <- solveOutcome{res, err}
}

// refine applies price refine to the optimal solution on g, finding
// potentials that satisfy complementary slackness in cost scaling's scaled
// domain without modifying the flow (paper §6.2: done "before we apply the
// latest cluster changes", i.e. at the end of the round). Returns the time
// spent. Price refine reads nothing of Options but the stop flag, and
// nothing stops it, so it gets none.
func (p *SolverPool) refine(g *flow.Graph) time.Duration {
	start := time.Now()
	p.scratch.PriceRefine(g, p.cs.ScaleFor(g), 0, nil)
	return time.Since(start)
}

// opts fills o, one of the pool's per-solver Options, with the pool's
// Options and stop as its Stop flag, and returns it.
func (p *SolverPool) opts(o *mcmf.Options, stop *atomic.Bool) *mcmf.Options {
	*o = p.Options
	o.Stop = stop
	return o
}
