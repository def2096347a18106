package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/faultfs"
	"firmament/internal/policy"
	"firmament/internal/service"
)

// newFaultyAPI stands up a durable service over a fault-injecting FS behind
// a real HTTP listener.
func newFaultyAPI(t *testing.T, onFailure service.WALFailurePolicy) (*Client, *service.Service, *faultfs.FS) {
	t.Helper()
	ffs := faultfs.New()
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncrementalCostScaling
	svc, _, err := service.Open(service.Options{
		Topology:  cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 4},
		Model:     func(cl *cluster.Cluster) policy.CostModel { return policy.NewLoadSpread(cl) },
		Scheduler: cfg,
		Service:   service.Config{RoundInterval: 100 * time.Microsecond},
		Durability: service.DurabilityConfig{
			Dir:           t.TempDir(),
			OnWALFailure:  onFailure,
			ProbeInterval: time.Millisecond,
			FS:            ffs,
		},
	})
	if err != nil {
		t.Fatalf("service.Open: %v", err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return Dial(ts.URL), svc, ffs
}

// waitHealth polls the healthz endpoint until the wanted status appears.
func waitHealth(t *testing.T, c *Client, want string, d time.Duration) HealthResponse {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		h, err := c.Healthz()
		if err != nil {
			t.Fatalf("Healthz: %v", err)
		}
		if h.Status == want {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reached %q; last: %+v", want, h)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAPIHealthzOK: a healthy service answers 200 with status "ok" and no
// cause.
func TestAPIHealthzOK(t *testing.T) {
	c, _, ts := newTestAPI(t,
		cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, service.Config{})
	h, err := c.Healthz()
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if h.Status != "ok" || h.Cause != "" {
		t.Fatalf("Healthz = %+v, want ok with no cause", h)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
}

// TestAPIHealthzDegradedCycle watches the durability state machine through
// the network: a persistent ENOSPC flips healthz to 503/"degraded" with the
// cause in the body, the heal lets the probe re-arm, and healthz returns to
// 200/"ok" with the re-arm visible in /v1/stats.
func TestAPIHealthzDegradedCycle(t *testing.T) {
	c, _, ffs := newFaultyAPI(t, service.WALDegrade)

	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Count: faultfs.Persistent, Err: syscall.ENOSPC})
	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
		t.Fatalf("Submit under degrade policy must ack volatile, got %v", err)
	}
	h := waitHealth(t, c, "degraded", 10*time.Second)
	if !strings.Contains(h.Cause, "no space left") && !strings.Contains(h.Cause, "ENOSPC") {
		t.Fatalf("degraded cause %q does not name the disk fault", h.Cause)
	}
	// The raw status code while degraded must be 503 — that is what load
	// balancers key on.
	resp, err := c.hc.Get(c.base + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	var body HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding healthz body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Status != "degraded" {
		t.Fatalf("healthz = %d %+v, want 503 degraded", resp.StatusCode, body)
	}

	ffs.Heal()
	waitHealth(t, c, "ok", 10*time.Second)
	st := waitStats(t, c, 10*time.Second, func(st Stats) bool { return st.WALRearms >= 1 })
	if st.Health != "ok" || st.FailureCause != "" {
		t.Fatalf("stats after re-arm: health %q cause %q, want ok and cleared", st.Health, st.FailureCause)
	}
	// Accepting work again, durably.
	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err != nil {
		t.Fatalf("Submit after re-arm: %v", err)
	}
}

// TestAPIHealthzFailStop: under the fail-stop policy a permanent disk error
// kills the loop, healthz flips to 503/"failed" with the cause, and every
// subsequent API error body says why the scheduler stopped — a remote caller
// can tell a disk death from a routine shutdown.
func TestAPIHealthzFailStop(t *testing.T) {
	c, _, ffs := newFaultyAPI(t, service.WALFailStop)

	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, Count: faultfs.Persistent, Err: syscall.EIO})
	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err == nil {
		t.Fatal("Submit through a persistent EIO under fail-stop succeeded")
	}
	h := waitHealth(t, c, "failed", 10*time.Second)
	if h.Cause == "" {
		t.Fatal("failed healthz carries no cause")
	}

	// Once the loop is dead, remote submits map to ErrClosed — but the
	// error body must still carry the WAL failure, not a bare "closed".
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		if err != nil && errors.Is(err, service.ErrClosed) {
			if !strings.Contains(err.Error(), "wal failure") {
				t.Fatalf("post-death remote error %q does not name the WAL failure", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote submit never surfaced ErrClosed; last err: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsWireFieldNames pins the wire contract of /v1/stats: the exact
// key set, the spelling of the fault-tolerance additions (the drop counter
// travels as watch_dropped, the WAL counters and health fields are
// present), and a lossless round trip through json.Unmarshal, which is how
// Client.Stats reads the counters the CI smokes check.
func TestStatsWireFieldNames(t *testing.T) {
	b, err := json.Marshal(Stats{Counters: service.Counters{WatchDropped: 7, WALRearms: 1, Health: "ok"}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(b)
	for _, key := range []string{`"watch_dropped":7`, `"wal_retries":0`, `"degraded_rounds":0`, `"wal_rearms":1`, `"health":"ok"`} {
		if !strings.Contains(s, key) {
			t.Fatalf("stats wire form missing %s: %s", key, s)
		}
	}
	if strings.Contains(s, "dropped_publications") {
		t.Fatalf("stats wire form still carries the old dropped_publications key: %s", s)
	}

	wantKeys := []string{
		"rounds", "submitted", "backlogged", "placed", "migrated", "preempted",
		"completed", "stale_completions", "stale_machine_ops", "stale_decisions",
		"unscheduled", "watch_dropped", "solver_warm_starts", "solver_full_restarts",
		"template_hits", "template_misses", "template_invalidations",
		"wal_retries", "degraded_rounds", "wal_rearms", "health", "pending", "running",
		"queue_depth", "batch_size", "algorithm_runtime", "round_time", "placement_latency",
	}
	keysOf := func(b []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	sorted := func(keys ...string) []string {
		keys = slices.Clone(keys)
		slices.Sort(keys)
		return keys
	}
	if got, want := keysOf(b), sorted(wantKeys...); !slices.Equal(got, want) {
		t.Fatalf("stats keys with no failure cause:\n got %v\nwant %v", got, want)
	}

	// Every field distinct and nonzero: a counter the wire loses, or two
	// that share a key, cannot survive the trip.
	var full Stats
	v := reflect.ValueOf(&full).Elem()
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int, reflect.Int64:
			n++
			v.SetInt(int64(n))
		case reflect.Float64:
			n++
			v.SetFloat(float64(n) + 0.5)
		case reflect.String:
			n++
			v.SetString(fmt.Sprintf("s%d", n))
		default:
			t.Fatalf("stats field of unhandled kind %s", v.Kind())
		}
	}
	fill(v)
	b, err = json.Marshal(full)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got, want := keysOf(b), sorted(append(wantKeys, "failure_cause")...); !slices.Equal(got, want) {
		t.Fatalf("stats keys with a failure cause:\n got %v\nwant %v", got, want)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != full {
		t.Fatalf("stats did not survive the wire:\n sent %+v\n got %+v", full, back)
	}
}
