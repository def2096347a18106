package service

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// soakLoad runs tasks through a manually stepped service: every round
// enacts the completions of the tasks the previous round placed, retires
// their jobs, and places a fresh batch, so the cluster holds one batch of
// live work however many tasks have gone through.
type soakLoad struct {
	t      *testing.T
	s      *Service
	clock  *time.Duration
	events <-chan Placement
	tasks  int // tasks submitted so far
}

// soakJobs × soakJobTasks tasks are submitted each round: the 128 slots of
// soakTopo, so every round places all of them.
const soakJobs, soakJobTasks = 16, 8

var soakTopo = cluster.Topology{Racks: 2, MachinesPerRack: 8, SlotsPerMachine: 8}

func newSoakLoad(t *testing.T, s *Service, clock *time.Duration) *soakLoad {
	events, cancel := s.Watch()
	t.Cleanup(cancel)
	return &soakLoad{t: t, s: s, clock: clock, events: events}
}

// runTo steps rounds until n tasks have been submitted, calling after (if
// set) at the end of each.
func (d *soakLoad) runTo(n int, after func()) {
	d.t.Helper()
	for d.tasks < n {
		for range soakJobs {
			if _, err := d.s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, soakJobTasks)); err != nil {
				d.t.Fatalf("Submit: %v", err)
			}
		}
		d.tasks += soakJobs * soakJobTasks
		*d.clock += time.Millisecond
		if _, err := d.s.runRound(); err != nil {
			d.t.Fatalf("runRound: %v", err)
		}
		for placed := 0; placed < soakJobs*soakJobTasks; placed++ {
			p := <-d.events
			if p.Kind != core.DecisionPlaced {
				d.t.Fatalf("unexpected decision %+v", p)
			}
			if err := d.s.Complete(p.Task); err != nil {
				d.t.Fatalf("Complete: %v", err)
			}
		}
		if after != nil {
			after()
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakVolatileHeap runs 200k tasks through a volatile service and
// checks that its live heap follows live work, not history: between the
// first 20k tasks and the end it may grow by less than 32 B per task. What
// does grow is metrics.Dist, which keeps every placement-latency sample
// (8 B a task).
func TestSoakVolatileHeap(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("soak: runs without -short and without -race")
	}
	var clock time.Duration
	s := manualServiceCfg(soakTopo, &clock, Config{})
	d := newSoakLoad(t, s, &clock)
	const warm, total = 20_000, 200_000
	d.runTo(warm, nil)
	h0, at0 := liveHeap(), d.tasks
	d.runTo(total, nil)
	h1 := liveHeap()
	perTask := (float64(h1) - float64(h0)) / float64(d.tasks-at0)
	t.Logf("live heap %d B after %d tasks, %d B after %d: %.1f B/task", h0, at0, h1, d.tasks, perTask)
	if perTask >= 32 {
		t.Fatalf("live heap grew %.1f B per task between %d and %d tasks, want < 32", perTask, at0, d.tasks)
	}
	if st := s.Stats(); st.Completed != int64(d.tasks-soakJobs*soakJobTasks) || st.Running != soakJobs*soakJobTasks {
		t.Fatalf("completed %d running %d after %d tasks", st.Completed, st.Running, d.tasks)
	}
}

// TestSoakDurableSnapshots runs 100k tasks through a durable service and
// checks that its snapshots follow live work, not history: the last one
// cut may be at most twice the size of the first one cut after 20k tasks.
func TestSoakDurableSnapshots(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("soak: runs without -short and without -race")
	}
	var clock time.Duration
	dir := t.TempDir()
	s := openManualDurable(t, DurabilityConfig{Dir: dir, Sync: wal.SyncNone, SnapshotEvery: 64}, soakTopo, &clock)
	d := newSoakLoad(t, s, &clock)
	const warm, total = 20_000, 100_000
	var first, last int64
	var snaps int
	after := func() {
		if s.lastSnapRound != s.ctr.Rounds {
			return // no snapshot this round
		}
		lws, err := s.jrn.log.Snapshots()
		if err != nil || len(lws) == 0 {
			t.Fatalf("no snapshot after a cut: %v", err)
		}
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snap-%020d.state", lws[len(lws)-1])))
		if err != nil {
			t.Fatal(err)
		}
		last = fi.Size()
		if d.tasks > warm {
			snaps++
			if first == 0 {
				first = last
			}
		}
	}
	d.runTo(total, after)
	t.Logf("%d snapshots after %d tasks: first %d B, last %d B", snaps, warm, first, last)
	if snaps < 2 {
		t.Fatalf("%d snapshots cut after warm-up, want at least 2", snaps)
	}
	if last > 2*first {
		t.Fatalf("last snapshot %d B is more than twice the first after warm-up (%d B)", last, first)
	}
}

// openManualDurable builds a durable service over dur with the loop not
// started, like manualDurableCfg but with the caller's topology and
// journal settings.
func openManualDurable(t *testing.T, dur DurabilityConfig, topo cluster.Topology, clock *time.Duration) *Service {
	t.Helper()
	dur = dur.withDefaults()
	log, err := wal.Open(dur.Dir, wal.Options{SegmentBytes: dur.SegmentBytes, Sync: dur.Sync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	s, _, err := buildFromJournal(Options{
		Topology:   topo,
		Model:      func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler:  detCfg(),
		Durability: dur,
	}, dur, log)
	if err != nil {
		t.Fatal(err)
	}
	s.testHookNow = func() time.Duration { return *clock }
	return s
}
