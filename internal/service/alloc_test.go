package service

import (
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/wal"
)

// TestSteadyStateJournalRound pins the round record's journaling at zero
// allocations: journalRound encodes into a buffer the loop owns and reuses,
// and the log copies the payload into its buffered writer. The record is a
// real one — the last round placed a job and folded its events. Run it
// without -race, which distorts AllocsPerRun.
func TestSteadyStateJournalRound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	// One segment large enough that no append in the measurement rotates
	// (rotation opens a file).
	var clock time.Duration
	s := openManualDurable(t, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncNone, SegmentBytes: 64 << 20},
		cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 8}, &clock)
	if _, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 16)); err != nil {
		t.Fatal(err)
	}
	clock += time.Millisecond
	if _, err := s.runRound(); err != nil {
		t.Fatal(err)
	}
	if len(s.rec.decisions) == 0 || len(s.rec.batches) == 0 {
		t.Fatalf("the round journaled %d decisions and %d batches, want some of each", len(s.rec.decisions), len(s.rec.batches))
	}
	journal := func() {
		if err := s.journalRound(); err != nil {
			t.Fatal(err)
		}
	}
	journal() // grow the buffer to the record's size
	if got := testing.AllocsPerRun(50, journal); got != 0 {
		t.Fatalf("journalRound allocates %.1f objects/round, want 0", got)
	}
}
