package service

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"firmament/internal/wal"
)

// Disk-fault tolerance for the durable service (docs/durability.md, fault
// model): WAL errors are classified transient vs permanent. Transient sync
// errors are retried with bounded exponential backoff inside the round;
// a permanent failure is handled per DurabilityConfig.OnWALFailure — either
// fail-stop (the loop dies with the cause captured) or degrade (scheduling
// continues volatile with Health() loudly Degraded, the disk is probed every
// ProbeInterval, and durability re-arms by reopening the WAL and cutting a
// fresh full snapshot once the disk heals).

// WALFailurePolicy selects how the service responds to a permanent WAL
// failure (DurabilityConfig.OnWALFailure).
type WALFailurePolicy uint8

const (
	// WALFailStop (the default) stops the service cleanly: the scheduling
	// loop exits with the failure as its fatal error, front-door calls
	// return ErrClosed wrapping the cause, and nothing un-journaled is ever
	// acknowledged.
	WALFailStop WALFailurePolicy = iota
	// WALDegrade keeps scheduling with durability off: Health() reports
	// Degraded, acknowledgements stop implying persistence, and the service
	// probes the disk every ProbeInterval, re-arming durability (reopened
	// WAL + fresh full snapshot) once it heals.
	WALDegrade
)

// ParseWALFailurePolicy maps the CLI spelling ("fail-stop", "degrade") to a
// WALFailurePolicy.
func ParseWALFailurePolicy(s string) (WALFailurePolicy, error) {
	switch s {
	case "fail-stop", "failstop":
		return WALFailStop, nil
	case "degrade":
		return WALDegrade, nil
	}
	return 0, fmt.Errorf("service: unknown WAL failure policy %q (want fail-stop or degrade)", s)
}

func (p WALFailurePolicy) String() string {
	switch p {
	case WALFailStop:
		return "fail-stop"
	case WALDegrade:
		return "degrade"
	}
	return fmt.Sprintf("WALFailurePolicy(%d)", int(p))
}

// HealthState is the service's coarse health: ok, degraded (scheduling
// volatile after a WAL failure under WALDegrade), or failed (loop dead or
// service closed).
type HealthState int32

const (
	HealthOK HealthState = iota
	HealthDegraded
	HealthFailed
)

func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthFailed:
		return "failed"
	}
	return fmt.Sprintf("HealthState(%d)", int32(h))
}

// Health is a point-in-time health report: the state plus, when not OK, the
// captured cause.
type Health struct {
	State HealthState
	Cause string
}

// Health reports the service's current health. Safe from any goroutine.
func (s *Service) Health() Health {
	if err := s.Err(); err != nil {
		return Health{State: HealthFailed, Cause: err.Error()}
	}
	st := HealthState(s.health.Load())
	if st == HealthFailed {
		return Health{State: HealthFailed, Cause: s.healthCauseStr()}
	}
	if s.closed.Load() {
		return Health{State: HealthFailed, Cause: "service closed"}
	}
	if st == HealthDegraded {
		return Health{State: HealthDegraded, Cause: s.healthCauseStr()}
	}
	return Health{State: HealthOK}
}

func (s *Service) healthCauseStr() string {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.healthCause == nil {
		return ""
	}
	return s.healthCause.Error()
}

func (s *Service) setHealthCause(err error) {
	s.healthMu.Lock()
	if s.healthCause == nil {
		s.healthCause = err
	}
	s.healthMu.Unlock()
}

func (s *Service) clearHealthCause() {
	s.healthMu.Lock()
	s.healthCause = nil
	s.healthMu.Unlock()
}

// degradedNow reports whether durability is currently off (volatile
// scheduling after a WAL failure). One atomic load.
func (s *Service) degradedNow() bool {
	return HealthState(s.health.Load()) == HealthDegraded
}

// closedErr is the error front-door methods return once the service is
// closed: plain ErrClosed after a graceful Close, ErrClosed wrapping the
// loop's fatal error after a loop death — so a 503 can say why the
// scheduler stopped instead of looking like a routine shutdown.
func (s *Service) closedErr() error {
	if err := s.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return ErrClosed
}

// transientWALError classifies WAL errors worth an in-round retry: signal
// interruptions and would-block conditions clear on their own within
// microseconds. Everything else (EIO, ENOSPC, corruption, a closed log) is
// permanent for the round's purposes and goes to walFailure — ENOSPC
// windows heal too, but on probe timescales, not retry timescales.
func transientWALError(err error) bool {
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// walRetryLimit bounds in-round retries of a transient WAL sync error, and
// walRetryBackoff is the first wait between them; each later wait doubles.
const (
	walRetryLimit   = 3
	walRetryBackoff = time.Millisecond
)

// retryWAL runs fn, retrying transient errors with bounded exponential
// backoff (walRetryLimit attempts, walRetryBackoff initial, doubling). Only
// sync operations are retried this way: a failed append may have left a
// torn frame in the buffered writer, which no in-place retry can repair —
// that path goes straight to walFailure and is healed by the re-arm reopen.
func (s *Service) retryWAL(fn func() error) error {
	err := fn()
	if err == nil {
		return nil
	}
	backoff := walRetryBackoff
	for attempt := 0; attempt < walRetryLimit && transientWALError(err); attempt++ {
		s.walRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}

// walFailure handles a permanent WAL error per the configured policy. It
// returns true when the service degraded (the caller continues volatile)
// and false for fail-stop (the caller surfaces err; the loop dies on its
// next check). Safe from any goroutine, including front-door callers
// holding closeMu.RLock.
func (s *Service) walFailure(err error) bool {
	if s.dur.OnWALFailure == WALDegrade {
		s.setHealthCause(err)
		s.health.CompareAndSwap(int32(HealthOK), int32(HealthDegraded))
		return true
	}
	s.setHealthCause(err)
	// Record the cause for Err()/closedErr() immediately: front-door
	// callers racing the loop's death must already see why.
	s.runErrMu.Lock()
	if s.runErr == nil {
		s.runErr = fmt.Errorf("service: wal failure: %w", err)
	}
	s.runErrMu.Unlock()
	s.health.Store(int32(HealthFailed))
	s.wake() // the loop notices at its next round and exits
	return false
}

// fatalWAL returns the pending fail-stop error, if walFailure requested one
// from a front-door goroutine. Checked at the top of every round.
func (s *Service) fatalWAL() error {
	if HealthState(s.health.Load()) != HealthFailed {
		return nil
	}
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.healthCause != nil {
		return fmt.Errorf("wal failure: %w", s.healthCause)
	}
	return errors.New("wal failure")
}

// maybeRearm probes the sick disk and, if it has healed, re-arms
// durability. Called only from the scheduling goroutine (top of runRound)
// while degraded, paced by ProbeInterval.
//
// The re-arm sequence is ordered for crash safety:
//
//  1. Reopen the WAL. wal.Open rescans the final segment and truncates the
//     torn frame a sick append left behind, so the reopened log resumes
//     from the durable prefix with a continuous sequence numbering.
//  2. Under the closeMu write lock (no front-door journaling straddles the
//     swap), re-stamp the queued ops: ops accepted during the volatile
//     window (seq 0), or whose records did not survive the reopen, get
//     fresh intent records. Then swap the journal in.
//  3. Still under the lock, cut a fresh full snapshot. Everything the
//     volatile window did — jobs, placements, completions — becomes
//     durable at once, and the queued ops' sequences, old and re-stamped,
//     set its low-water mark like any other cut's. Only after the snapshot
//     lands does health flip back to OK: an ack issued between swap and
//     snapshot would otherwise cite state (volatile-era jobs) that
//     recovery could not rebuild.
//
// Any failure along the way leaves the service degraded; the next probe
// starts over.
func (s *Service) maybeRearm() {
	if s.dur.ProbeInterval > 0 && time.Since(s.lastProbe) < s.dur.ProbeInterval {
		return
	}
	s.lastProbe = time.Now()
	s.jrn.log.Close() // best effort: the handle is poisoned anyway
	log, err := wal.Open(s.dur.Dir, wal.Options{
		SegmentBytes: s.dur.SegmentBytes,
		Sync:         s.dur.Sync,
		FS:           s.dur.FS,
	})
	if err != nil {
		return // still sick; probe again next interval
	}
	// Reopening an existing log performs no writes, so the Open above is no
	// evidence the disk healed: without a real probe a still-sick disk
	// passes, the snapshot lands (snapshots live in different files that
	// may be on healthy ground), health flips OK, and the very next append
	// degrades again — an oscillation that cuts a snapshot per probe.
	if err := log.Probe(); err != nil {
		log.Close()
		return // open worked but writes still fail; stay degraded
	}
	jr := &journal{log: log}
	// Records past this point did not survive the reopen (torn tail, or a
	// previous re-arm attempt whose appends never flushed): their ops are
	// re-stamped like volatile ones.
	durableSeq := log.LastSeq()
	// Everything from the re-stamp through the health flip happens under
	// the closeMu write lock. While degraded, submits are volatile: they
	// register jobs in the cluster without journaling anything. One landing
	// between the snapshot cut below and the flip to OK would exist in
	// memory but in neither the snapshot nor the log — and the next round's
	// record would cite its tasks, which recovery could not rebuild (a
	// restart would panic replaying them). Holding the write lock means no
	// front-door call runs until the flip is done, so every submit after
	// the snapshot takes the durable path.
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		log.Close() // Close won the race and already tore the service down
		return
	}
	var restamped uint64
	ok := true
	for _, sh := range s.opShards {
		// closeMu excludes every enqueue, and the loop (us) is the only
		// drainer, so the shard slices are stable without sh.mu.
		for i := range sh.ops {
			if sh.ops[i].seq != 0 && sh.ops[i].seq <= durableSeq {
				continue
			}
			var e wal.Enc
			encodeIntentRecord(&e, sh.ops[i])
			seq, err := jr.appendIntent(e.B)
			if err != nil {
				ok = false
				break
			}
			sh.ops[i].seq = seq
			restamped = seq
		}
		if !ok {
			break
		}
	}
	// The re-stamped intents were acknowledged during the volatile window;
	// once health reads OK they must be as crash-safe as any other ack, so
	// they are synced before the flip, not left in the writer's buffer.
	if ok && restamped != 0 {
		//firmament:ignore lockorder the re-arm holds the close membrane by design: the restamped intents must be durable and health flipped before any front-door call can run again, and probes are rare
		ok = jr.syncTo(restamped) == nil
	}
	if !ok {
		log.Close()
		return
	}
	s.jrn = jr
	// Health is still Degraded: front-door acks stay volatile until the
	// snapshot below makes the whole volatile window durable.
	if err := s.snapshot(); err != nil {
		return
	}
	// Expose the re-arm alone before health reads ok, so a poll that sees
	// ok sees it counted; the round's own counters follow at its end.
	s.ctr.WALRearms++
	s.pubMu.Lock()
	s.pub.WALRearms = s.ctr.WALRearms
	s.pubMu.Unlock()
	s.clearHealthCause()
	s.health.Store(int32(HealthOK))
}
