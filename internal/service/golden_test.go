package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenJournalRestore restores testdata/golden-journal, a journal an
// earlier build recorded, and checks that today's restore reaches exactly
// the state that build reached. Every other recovery test writes its
// journal with the code under test, so a change to how records are written
// and read back that stays self-consistent would pass them all; this one
// pins the reading side against a fixed set of bytes.
//
// The journal was recorded with manualDurableCfg (templates on,
// SnapshotEvery 4) from this script, one millisecond between steps:
//
//	round 1: job A (2 tasks) misses the cache, is solved, is recorded
//	round 2: A completes, job B (A's shape) hits — an unsolved round
//	round 3: job D (3 tasks) misses and is solved
//	round 4: a snapshot is cut (the log tail below follows it)
//	round 5: B and D complete; A's first task completes again (stale);
//	         machine 3 is restored while healthy (stale); job C (A's
//	         shape) hits — an unsolved round
//	round 6: the machine running C's first task is removed (evicting the
//	         task and dropping the template); a 1-task job is submitted
//	round 7: that machine is restored
//
// then, acknowledged but never enacted: C's second task completes, a
// 2-task job is submitted and machine 2 is removed. The process was then
// abandoned without Close, as kill -9 leaves it.
func TestGoldenJournalRestore(t *testing.T) {
	src := filepath.Join("testdata", "golden-journal")
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var clock time.Duration
	s, info := manualDurableCfg(t, dir, &clock, Config{Templates: true})

	wantInfo := RestoreInfo{Restored: true, SnapshotRound: 4, ReplayedRecords: 17,
		ReplayedRounds: 3, PendingOps: 2, RunningTasks: 3, PendingTasks: 2}
	if *info != wantInfo {
		t.Errorf("RestoreInfo = %+v, want %+v", *info, wantInfo)
	}

	st := s.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Rounds", st.Rounds, 7},
		{"Submitted", st.Submitted, 12},
		{"Backlogged", st.Backlogged, 0},
		{"Placed", st.Placed, 11},
		{"Migrated", st.Migrated, 0},
		{"Preempted", st.Preempted, 0},
		{"Completed", st.Completed, 7},
		{"StaleCompletions", st.StaleCompletions, 1},
		{"StaleMachineOps", st.StaleMachineOps, 1},
		{"StaleDecisions", st.StaleDecisions, 0},
		{"Unscheduled", st.Unscheduled, 0},
		{"WatchDropped", st.WatchDropped, 0},
		{"SolverWarmStarts", st.SolverWarmStarts, 5},
		{"SolverFullRestarts", st.SolverFullRestarts, 0},
		{"TemplateHits", st.TemplateHits, 2},
		{"TemplateMisses", st.TemplateMisses, 3},
		{"TemplateInvalidations", st.TemplateInvalidations, 1},
		{"WALRetries", st.WALRetries, 0},
		{"DegradedRounds", st.DegradedRounds, 0},
		{"WALRearms", st.WALRearms, 0},
		{"Pending", st.Pending, 2},
		{"Running", st.Running, 3},
	} {
		if c.got != c.want {
			t.Errorf("Stats.%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// The snapshot predates retirement (cluster snapshot version 1): its
	// finished job A joins the done list and retires with B and D in
	// replayed round 5. Their seven completed tasks leave the tables but
	// not the tally, which reads what the recording build read.
	if p, r, c, f := s.Cluster().CountStates(); p != 2 || r != 3 || c != 7 || f != 0 {
		t.Errorf("CountStates = (%d, %d, %d, %d), want (2, 3, 7, 0)", p, r, c, f)
	}
	if jobs, tasks := s.Cluster().Retired(); jobs != 3 || tasks != 7 {
		t.Errorf("Retired = (%d jobs, %d tasks), want (3, 7)", jobs, tasks)
	}

	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		// The recording build split the cluster tables into 16 sections;
		// the restore merges them and the fingerprint hashes the merged
		// one-section encoding. That build's encoder, changed only to write
		// its sections merged, hashes the same restored state to this value.
		{"Cluster.Fingerprint", s.Cluster().Fingerprint(), 0x1db80065202394c9},
		{"Scheduler.Fingerprint", s.Scheduler().Fingerprint(), 0xd4f6d53023564224},
		{"TemplateCacheFingerprint", s.TemplateCacheFingerprint(), 0x86a6ed1c2aae622d},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
