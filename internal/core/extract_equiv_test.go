package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/flow"
)

// arcIndexedExtract is the oracle of ExtractRound: the same LIFO token walk
// over the same rows, with each in-arc's unattributed flow kept in slices
// indexed by ArcID and set on the arc's first visit. It fills a table of its
// own, by node, and counts the pops that find a node's in-arcs already
// visited this round — the revisits that read flow left over from an
// earlier pop.
func arcIndexedExtract(gm *GraphManager) (placed []cluster.MachineID, revisits int) {
	g := gm.g
	adj := g.Adjacency()
	pl := g.ArcPlanes()
	n := g.NodeIDBound()
	tokens := make([][]cluster.MachineID, n)
	remaining := make([]int64, g.ArcIDBound())
	remSet := make([]bool, g.ArcIDBound())
	queued := make([]bool, n)
	visited := make([]bool, n)
	var queue []flow.NodeID
	placed = make([]cluster.MachineID, n)
	for i := range placed {
		placed[i] = cluster.InvalidMachine
	}

	for mid, a := range gm.machineSink {
		if a == flow.InvalidArc || g.Flow(a) <= 0 {
			continue
		}
		f, mnode := g.Flow(a), g.Tail(a)
		for i := int64(0); i < f; i++ {
			tokens[mnode] = append(tokens[mnode], cluster.MachineID(mid))
		}
		queue = append(queue, mnode)
		queued[mnode] = true
	}
	for len(queue) > 0 {
		node := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[node] = false
		if _, isTask := gm.taskAt(node); isTask {
			if ts := tokens[node]; len(ts) > 0 {
				placed[node] = ts[0]
				tokens[node] = ts[:0]
			}
			continue
		}
		ts := tokens[node]
		if len(ts) == 0 {
			continue
		}
		if visited[node] {
			revisits++
		}
		visited[node] = true
		for _, b := range adj.Out(node) {
			if len(ts) == 0 {
				break
			}
			in := g.Reverse(b)
			if !g.IsForward(in) {
				continue
			}
			rem := remaining[in]
			if !remSet[in] {
				rem = pl.Resid[b]
				remSet[in] = true
			}
			if rem <= 0 {
				remaining[in] = rem
				continue
			}
			src := pl.Head[b]
			move := min(rem, int64(len(ts)))
			tokens[src] = append(tokens[src], ts[len(ts)-int(move):]...)
			ts = ts[:len(ts)-int(move)]
			remaining[in] = rem - move
			if !queued[src] {
				queue = append(queue, src)
				queued[src] = true
			}
		}
		tokens[node] = ts
	}
	return placed, revisits
}

// TestExtractRoundMatchesArcIndexed checks extraction's slot-indexed
// bookkeeping against the arc-indexed oracle, for every policy of the
// update suite under each solver mode: after every solve of a
// burst-then-drain schedule, the two placement tables must be equal. The
// bursts oversubscribe the cluster and the drains free scattered slots, so
// aggregators are popped again and again within one extraction, reading
// flow that an earlier pop left unattributed; the test fails if that never
// happens.
func TestExtractRoundMatchesArcIndexed(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	modes := []SolverMode{ModeIncrementalCostScaling, ModeRelaxationOnly, ModeFirmament}
	for _, pol := range equivPolicies() {
		for _, mode := range modes {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", pol.name, mode, seed), func(t *testing.T) {
					runExtractEquiv(t, pol, mode, int64(seed))
				})
			}
		}
	}
}

func runExtractEquiv(t *testing.T, pol equivPolicy, mode SolverMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const gbps = 1000 * 1000 * 1000 / 8
	cl := cluster.New(cluster.Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 3, NICBps: 10 * gbps})
	cfg := DefaultConfig()
	cfg.Mode = mode
	s := NewScheduler(cl, pol.build(cl)(), cfg)
	var tasks []cluster.TaskID
	revisits := 0
	now := time.Duration(0)
	for step := 0; step < 60; step++ {
		now += time.Duration(100+rng.Intn(900)) * time.Millisecond
		if step%30 < 8 { // the burst: jobs arrive faster than slots free up
			for k := 0; k < 1+rng.Intn(2); k++ {
				specs := make([]cluster.TaskSpec, 3+rng.Intn(6))
				for i := range specs {
					specs[i] = pol.spec(rng)
				}
				tasks = append(tasks, cl.SubmitJob(cluster.Batch, 0, now, specs).Tasks...)
			}
		} else { // the drain: running tasks finish
			var running []cluster.TaskID
			for _, id := range tasks {
				if task := cl.Task(id); task != nil && task.State == cluster.TaskRunning {
					running = append(running, id)
				}
			}
			for k := 0; k < 1+rng.Intn(5) && len(running) > 0; k++ {
				i := rng.Intn(len(running))
				if err := cl.Complete(running[i], now); err != nil {
					t.Fatal(err)
				}
				running = slices.Delete(running, i, i+1)
			}
		}
		r, err := s.Schedule(now)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, n := arcIndexedExtract(s.gm)
		revisits += n
		if got := s.gm.ext.placed; !slices.Equal(got, want) {
			t.Fatalf("step %d: placement table\n%v\narc-indexed extraction\n%v", step, got, want)
		}
		s.ApplyRound(r, now)
	}
	if revisits == 0 {
		t.Fatal("no extraction popped a node twice: the schedule misses the case the slot prefix serves")
	}
	t.Logf("%d revisits", revisits)
}
