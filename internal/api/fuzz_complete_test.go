package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/service"
)

// FuzzCompleteBatchBody posts arbitrary bodies to POST /v1/tasks/complete
// on a live service whose jobs complete and retire. Every reply must be a
// 2xx or a 4xx, the scheduling loop must stay alive, and once the queue
// drains, every completion ID the server accepted must be counted exactly
// once — as Completed, or as StaleCompletions when it names a task that is
// unknown, retired, or no longer running.
func FuzzCompleteBatchBody(f *testing.F) {
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 4, SlotsPerMachine: 4})
	svc := service.New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(), service.Config{})
	f.Cleanup(func() { svc.Close() })
	srv := NewServer(svc)

	// Four 2-task jobs, all running: jobs 0-3, tasks job<<32 | index.
	events, cancel := svc.Watch()
	for range 4 {
		if _, err := svc.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 2)); err != nil {
			f.Fatal(err)
		}
	}
	for placed := 0; placed < 8; {
		select {
		case p := <-events:
			if p.Kind == core.DecisionPlaced {
				placed++
			}
		case <-time.After(10 * time.Second):
			f.Fatal("the seed jobs were not placed")
		}
	}
	cancel()

	for _, seed := range []string{
		`{"tasks":[0,1]}`, // job 0 completes and retires
		`{"tasks":[0]}`,   // a retired task
		`{"tasks":[4294967296,4294967296]}`,
		`{"tasks":[4294967297,8589934592,8589934593,12884901888]}`,
		`{"tasks":[12884901889,12884901889,99]}`,
		`{"tasks":[-1,9223372036854775807]}`,
		`{"tasks":[1e99]}`,
		`{"tasks":["0"]}`,
		`{"tasks":[]}`,
		`{"tasks":null}`,
		`{"tasks":[0]} trailing`,
		`{"tasks":`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}

	var accepted int64
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tasks/complete", bytes.NewReader(body)))
		if !(rec.Code >= 200 && rec.Code < 300 || rec.Code >= 400 && rec.Code < 500) {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code < 300 {
			// Decode as the server does to learn how many IDs it queued.
			var req CompleteRequest
			dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("status %d for a body the server cannot decode (%v): %q", rec.Code, err, body)
			}
			accepted += int64(len(req.Tasks))
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if err := svc.Err(); err != nil {
				t.Fatalf("scheduling loop died: %v", err)
			}
			st := svc.Stats()
			counted := st.Completed + st.StaleCompletions
			if counted == accepted {
				return
			}
			if counted > accepted || time.Now().After(deadline) {
				t.Fatalf("%d completions accepted, %d counted (%d completed, %d stale)",
					accepted, counted, st.Completed, st.StaleCompletions)
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
}
