// Package solvers holds the reference min-cost max-flow algorithms the
// paper compares against the two the scheduler runs (§4, Table 1, Fig. 7):
//
//	cyclecancel.go — cycle canceling (Klein), worst case O(N·M²·C·U)
//	ssp.go         — successive shortest path, worst case O(N²·U·log N)
//
// together with their helpers: Dinic's max-flow (dinic.go), which gives
// cycle canceling its initial feasible flow, the Bellman-Ford
// negative-cycle search, and the Table 3 change classification
// (table3.go). They implement mcmf.Solver and report mcmf's errors, so the
// experiments and the differential suite (internal/mcmf's external tests)
// run them beside relaxation and cost scaling. Nothing the service ships
// imports this package; firmament-vet's boundary analyzer keeps it so.
package solvers

import (
	"time"

	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// stopCheckInterval is how many units of work pass between cooperative
// cancellation checks, as in mcmf.
const stopCheckInterval = 4096

func stopped(o *mcmf.Options) bool {
	return o != nil && o.Stop != nil && o.Stop.Load()
}

func snapshot(o *mcmf.Options, start time.Time) {
	if o != nil && o.SnapshotHook != nil {
		o.SnapshotHook(time.Since(start))
	}
}

// Buffers holds the working arrays of MaxFlow and the negative-cycle
// search. Cycle canceling pins one to itself, so that repeat solves
// allocate nothing once the arrays have grown to the graph's size.
type Buffers struct {
	i64    []int64 // excesses or distances
	level  []int32 // BFS levels
	iter   []int32 // per-node adjacency row positions
	parent []flow.ArcID
	queue  []flow.NodeID
}

// fill reslices *buf to length n with every element set to v, growing it
// only when its capacity falls short.
func fill[T any](buf *[]T, n int, v T) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = v
	}
	return *buf
}
