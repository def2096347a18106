package mcmf

import (
	"time"

	"firmament/internal/flow"
)

// CycleCanceling implements Klein's cycle canceling algorithm (paper §4):
// first compute any feasible (max) flow, then repeatedly push flow around
// negative-cost directed cycles in the residual network until none remain
// (negative cycle optimality). Worst-case complexity O(N·M²·C·U), Table 1.
//
// Per Table 2, cycle canceling maintains feasibility at every iteration and
// works towards optimality. It is the simplest and slowest of Firmament's
// algorithms; it exists as a correctness oracle and as the Figure 7
// baseline.
type CycleCanceling struct {
	cycle   []flow.ArcID // reusable buffer for negativeCycle results
	scratch Scratch
}

// NewCycleCanceling returns a cycle canceling solver.
func NewCycleCanceling() *CycleCanceling { return &CycleCanceling{} }

// Name implements Solver.
func (c *CycleCanceling) Name() string { return "cycle-canceling" }

// Solve implements Solver.
func (c *CycleCanceling) Solve(g *flow.Graph, opts *Options) (Result, error) {
	start := time.Now()
	g.ResetFlow()
	g.ResetPotentials()
	unrouted, err := c.scratch.maxFlow(g, opts)
	if err != nil {
		return Result{}, err
	}
	if unrouted > 0 {
		return Result{}, ErrInfeasible
	}
	var iters int64
	for {
		if opts.stopped() {
			return Result{}, ErrStopped
		}
		cycle := c.scratch.negativeCycle(g, opts, c.cycle)
		if cycle != nil {
			c.cycle = cycle // retain the grown buffer for the next search
		}
		if cycle == nil {
			if opts.stopped() {
				return Result{}, ErrStopped
			}
			break
		}
		bottleneck := g.Resid(cycle[0])
		for _, a := range cycle[1:] {
			if r := g.Resid(a); r < bottleneck {
				bottleneck = r
			}
		}
		for _, a := range cycle {
			g.Push(a, bottleneck)
		}
		iters++
		opts.snapshot(start)
	}
	return Result{
		Algorithm:  c.Name(),
		Cost:       g.TotalCost(),
		Runtime:    time.Since(start),
		Iterations: iters,
	}, nil
}
