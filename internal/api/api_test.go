package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/service"
)

// newTestAPI stands up a scheduling service behind a real HTTP listener and
// returns a client dialed at it (plus the pieces for raw-request tests).
func newTestAPI(t *testing.T, topo cluster.Topology, cfg service.Config) (*Client, *service.Service, *httptest.Server) {
	t.Helper()
	if cfg.RoundInterval == 0 {
		cfg.RoundInterval = 200 * time.Microsecond
	}
	cl := cluster.New(topo)
	svc := service.New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(), cfg)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		svc.Close() // ends watch streams so the server drains cleanly
		ts.Close()
	})
	return Dial(ts.URL), svc, ts
}

// drainUntil receives from events until pred returns true or the deadline
// passes.
func drainUntil(t *testing.T, events <-chan service.Placement, d time.Duration, pred func(service.Placement) bool) {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case p, ok := <-events:
			if !ok {
				t.Fatal("watch stream closed early")
			}
			if pred(p) {
				return
			}
		case <-deadline:
			t.Fatal("timed out waiting for placements")
		}
	}
}

// waitStats polls the remote stats endpoint until pred holds.
func waitStats(t *testing.T, c *Client, d time.Duration, pred func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached; last snapshot: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAPIEndToEnd drives the full remote surface: submit over HTTP, stream
// placements over /v1/watch, complete tasks (single and batched), fail and
// restore a machine, and read stats — everything through the network path.
func TestAPIEndToEnd(t *testing.T) {
	c, _, _ := newTestAPI(t,
		cluster.Topology{Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 2}, service.Config{})

	ws, err := c.Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws.Cancel()
	events := ws.C

	// Submit one service-class job; the response must carry the allocated
	// IDs with the job encoded in each task's high bits.
	job, err := c.Submit(cluster.Service, 3, make([]cluster.TaskSpec, 4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(job.Tasks) != 4 {
		t.Fatalf("submit returned %d task ids, want 4", len(job.Tasks))
	}
	for _, id := range job.Tasks {
		if cluster.JobOfTask(id) != job.ID {
			t.Fatalf("task %d does not encode job %d", id, job.ID)
		}
	}

	// Every task must stream back as a placed decision with its latency.
	placedOn := make(map[cluster.TaskID]cluster.MachineID)
	drainUntil(t, events, 10*time.Second, func(p service.Placement) bool {
		if p.Kind != core.DecisionPlaced {
			return false
		}
		if p.Job != job.ID {
			t.Fatalf("placement for unknown job %d", p.Job)
		}
		if p.Latency <= 0 {
			t.Fatalf("placement latency %v not positive over the wire", p.Latency)
		}
		placedOn[p.Task] = p.Machine
		return len(placedOn) == 4
	})

	// Complete one task singly and the rest in one batched request.
	if err := c.Complete(job.Tasks[0]); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := c.CompleteBatch(job.Tasks[1:]); err != nil {
		t.Fatalf("CompleteBatch: %v", err)
	}
	waitStats(t, c, 10*time.Second, func(st Stats) bool { return st.Completed == 4 })

	// Fail a machine hosting a second job's task: the scheduler must
	// re-place the evicted tasks elsewhere, and the restore must be
	// accepted.
	job2, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	placedOn = make(map[cluster.TaskID]cluster.MachineID)
	mine := make(map[cluster.TaskID]bool)
	for _, id := range job2.Tasks {
		mine[id] = true
	}
	drainUntil(t, events, 10*time.Second, func(p service.Placement) bool {
		if p.Kind == core.DecisionPlaced && mine[p.Task] {
			placedOn[p.Task] = p.Machine
		}
		return len(placedOn) == 4
	})
	var victim cluster.MachineID = -1
	wantReplaced := make(map[cluster.TaskID]bool)
	for _, m := range placedOn {
		victim = m
		break
	}
	for id, m := range placedOn {
		if m == victim {
			wantReplaced[id] = true
		}
	}
	if err := c.RemoveMachine(victim); err != nil {
		t.Fatalf("RemoveMachine: %v", err)
	}
	drainUntil(t, events, 10*time.Second, func(p service.Placement) bool {
		if p.Kind == core.DecisionPlaced && wantReplaced[p.Task] {
			if p.Machine == victim {
				t.Fatalf("task %d re-placed on removed machine %d", p.Task, victim)
			}
			delete(wantReplaced, p.Task)
		}
		return len(wantReplaced) == 0
	})
	if err := c.RestoreMachine(victim); err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}

	st := waitStats(t, c, 10*time.Second, func(st Stats) bool { return st.Placed >= 8 })
	if st.Submitted != 8 || st.Completed != 4 || st.Rounds == 0 {
		t.Fatalf("stats over the wire: %+v", st)
	}
	if st.PlacementLatency.N < 8 || st.PlacementLatency.Max <= 0 {
		t.Fatalf("placement latency summary not populated: %+v", st.PlacementLatency)
	}
}

// TestAPIBackpressure429 fills the admission ceiling and checks the wire
// surfaces it as HTTP 429 mapped back to service.ErrBacklogged, and that
// ?wait=1 parks server-side until the backlog drains.
func TestAPIBackpressure429(t *testing.T) {
	c, _, ts := newTestAPI(t,
		cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 2},
		service.Config{MaxPendingFactor: 2})

	ws, err := c.Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws.Cancel()
	events := ws.C

	// Saturate both slots so the backlog can only grow.
	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var saturators []cluster.TaskID
	drainUntil(t, events, 10*time.Second, func(p service.Placement) bool {
		if p.Kind == core.DecisionPlaced {
			saturators = append(saturators, p.Task)
		}
		return len(saturators) == 2
	})

	backlogged := false
	for i := 0; i < 10000 && !backlogged; i++ {
		_, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2))
		if errors.Is(err, service.ErrBacklogged) {
			backlogged = true
		} else if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if !backlogged {
		t.Fatal("remote Submit never surfaced ErrBacklogged")
	}

	// The raw status must be 429, not a mapped approximation.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"tasks":[{}]}`))
	if err != nil {
		t.Fatalf("raw submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlogged submit returned %d, want 429", resp.StatusCode)
	}

	// ?wait=1 must park instead of failing, then get through once the
	// closed loop below drains the backlog.
	waitDone := make(chan error, 1)
	go func() {
		_, err := c.SubmitWait(context.Background(), cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		waitDone <- err
	}()
	select {
	case err := <-waitDone:
		t.Fatalf("SubmitWait returned %v while backlogged", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c.CompleteBatch(saturators); err != nil {
		t.Fatalf("CompleteBatch: %v", err)
	}
	go func() {
		for p := range events {
			if p.Kind == core.DecisionPlaced {
				c.Complete(p.Task)
			}
		}
	}()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("SubmitWait after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SubmitWait still parked after the backlog drained")
	}
}

// TestAPIShutdown503 closes the service under a live listener: open watch
// streams must end, and every front-door request must fail cleanly with
// HTTP 503 mapped back to service.ErrClosed.
func TestAPIShutdown503(t *testing.T) {
	c, svc, ts := newTestAPI(t,
		cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, service.Config{})

	ws, err := c.Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws.Cancel()
	events := ws.C

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("placement streamed after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream not ended by Close")
	}

	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := c.Complete(0); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("Complete after Close: err = %v, want ErrClosed", err)
	}
	if err := c.RemoveMachine(0); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("RemoveMachine after Close: err = %v, want ErrClosed", err)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"tasks":[{}]}`))
	if err != nil {
		t.Fatalf("raw submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close submit returned %d, want 503", resp.StatusCode)
	}

	// Stats stay readable after shutdown.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after Close: %v", err)
	}
}

// TestAPIValidation400 sends malformed requests and checks each is refused
// with 400 (or the mux's 404/405), never a panic or a 5xx. A negative
// input_file is not malformed: it means the task reads no input.
func TestAPIValidation400(t *testing.T) {
	_, _, ts := newTestAPI(t,
		cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, service.Config{})

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/jobs", `{"tasks":`, 400},
		{"no tasks", "/v1/jobs", `{"tasks":[]}`, 400},
		{"unknown class", "/v1/jobs", `{"class":"interactive","tasks":[{}]}`, 400},
		{"negative duration", "/v1/jobs", `{"tasks":[{},{"duration_ns":-1}]}`, 400},
		{"negative input size", "/v1/jobs", `{"tasks":[{"input_size":-1}]}`, 400},
		{"negative net demand", "/v1/jobs", `{"tasks":[{"net_demand":-1}]}`, 400},
		{"no input file", "/v1/jobs", `{"tasks":[{"input_file":-1}]}`, 200},
		{"non-numeric task id", "/v1/tasks/abc/complete", ``, 400},
		{"batch complete no ids", "/v1/tasks/complete", `{"tasks":[]}`, 400},
		{"non-numeric machine id", "/v1/machines/x/remove", ``, 400},
		{"unknown machine", "/v1/machines/999/remove", ``, 400},
		{"machine id overflowing int32", "/v1/machines/4294967296/remove", ``, 400},
		{"negative machine", "/v1/machines/-1/restore", ``, 400},
		{"unknown route", "/v1/nope", ``, 404},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	// Wrong method on a registered route.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: status %d, want 405", resp.StatusCode)
	}
}

// TestAPISubmitWaitClientGone parks a ?wait=1 submission, hangs up the
// client, and verifies the abandoned admission never submits: once the
// backlog drains, the cluster must see only the jobs still owned by live
// callers — no orphans from handlers whose clients disappeared.
func TestAPISubmitWaitClientGone(t *testing.T) {
	c, svc, _ := newTestAPI(t,
		cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 2},
		service.Config{MaxPendingFactor: 2})

	ws, err := c.Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws.Cancel()
	events := ws.C

	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var saturators []cluster.TaskID
	drainUntil(t, events, 10*time.Second, func(p service.Placement) bool {
		if p.Kind == core.DecisionPlaced {
			saturators = append(saturators, p.Task)
		}
		return len(saturators) == 2
	})
	submitted := int64(2)
	for i := 0; i < 10000; i++ {
		_, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2))
		if errors.Is(err, service.ErrBacklogged) {
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		submitted += 2
	}

	// Park a waited submission, then hang up.
	ctx, hangup := context.WithCancel(context.Background())
	waitDone := make(chan error, 1)
	go func() {
		_, err := c.SubmitWait(ctx, cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		waitDone <- err
	}()
	select {
	case err := <-waitDone:
		t.Fatalf("SubmitWait returned %v while backlogged", err)
	case <-time.After(50 * time.Millisecond):
	}
	hangup()
	select {
	case err := <-waitDone:
		if err == nil {
			t.Fatal("SubmitWait succeeded after the client hung up")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWait not released by client hangup")
	}

	// Drain everything; the abandoned submission must never land.
	if err := c.CompleteBatch(saturators); err != nil {
		t.Fatalf("CompleteBatch: %v", err)
	}
	go func() {
		for p := range events {
			if p.Kind == core.DecisionPlaced {
				c.Complete(p.Task)
			}
		}
	}()
	waitStats(t, c, 30*time.Second, func(st Stats) bool { return st.Completed >= submitted })
	time.Sleep(50 * time.Millisecond) // give an orphan submission time to surface
	if st, _ := c.Stats(); st.Submitted != submitted {
		t.Fatalf("Submitted = %d after hangup and drain, want %d (orphan job landed)",
			st.Submitted, submitted)
	}
	_ = svc
}

// TestAPIWatchErrDistinguishesCorruption checks WatchStream.Err: a clean
// service close reads as nil, while a corrupt or severed stream surfaces
// the failure instead of masquerading as shutdown.
func TestAPIWatchErrDistinguishesCorruption(t *testing.T) {
	// Corrupt stream: a fake front door that emits garbage NDJSON.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("{\"task\":1,\"kind\":\"placed\"}\nnot json at all\n"))
	}))
	defer fake.Close()
	ws, err := Dial(fake.URL).Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws.Cancel()
	for range ws.C {
	}
	if ws.Err() == nil {
		t.Fatal("corrupt watch stream reported a clean close")
	}

	// Unknown decision kind is corruption too, not a clean end.
	fake2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("{\"task\":1,\"kind\":\"teleported\"}\n"))
	}))
	defer fake2.Close()
	ws2, err := Dial(fake2.URL).Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws2.Cancel()
	for range ws2.C {
	}
	if ws2.Err() == nil {
		t.Fatal("unknown decision kind reported a clean close")
	}

	// Clean close: a real service shutting down.
	c, svc, _ := newTestAPI(t,
		cluster.Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 1}, service.Config{})
	ws3, err := c.Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer ws3.Cancel()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for range ws3.C {
	}
	if err := ws3.Err(); err != nil {
		t.Fatalf("clean service close surfaced a watch error: %v", err)
	}
}

// TestAPIOpTimeout points the client at a server that never answers: unary
// calls must fail within OpTimeout instead of hanging forever.
func TestAPIOpTimeout(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // never answers while the test runs
	}))
	defer ts.Close()
	// Runs before ts.Close (defers are LIFO): the parked handlers return
	// first, so Close can drain. The server cannot see these abandoned
	// clients itself — their POST bodies are never read, and net/http only
	// detects a disconnect once the body is consumed.
	defer close(stall)

	c := Dial(ts.URL)
	c.OpTimeout = 100 * time.Millisecond
	start := time.Now()
	if _, err := c.Stats(); err == nil {
		t.Fatal("Stats against a stalled server succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Stats took %v to fail, want ~OpTimeout", waited)
	}
	if _, err := c.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1)); err == nil {
		t.Fatal("Submit against a stalled server succeeded")
	}
}
