package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/service"
)

// FuzzSubmitBody posts arbitrary bodies to POST /v1/jobs on a live service.
// Every response must be a 2xx or a 4xx, nothing may panic, and a body
// that carries a negative duration, input size or network demand must get
// 400 — those values would reach the cluster state and the journal.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"tasks":[{}]}`,
		`{"tasks":[{}]} {"tasks":[{"duration_ns":-1}]}`,
		`{"class":"service","priority":3,"tasks":[{"duration_ns":1000000,"input_file":-1,"input_size":4096,"net_demand":10}]}`,
		`{"class":"batch","tasks":[{"input_file":7,"input_size":1},{}]}`,
		`{"tasks":[{"duration_ns":-1}]}`,
		`{"tasks":[{"input_size":-5}]}`,
		`{"tasks":[{"net_demand":-9223372036854775808}]}`,
		`{"tasks":[{"duration_ns":1e99}]}`,
		`{"tasks":[]}`,
		`{"class":"interactive","tasks":[{}]}`,
		`{"tasks":`,
		`{"tasks":null}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	cl := cluster.New(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	// The backlog ceiling keeps a long fuzz run from growing the cluster
	// without bound: past it, submissions get 429.
	svc := service.New(cl, policy.NewLoadSpread(cl), core.DefaultConfig(), service.Config{MaxPendingFactor: 16})
	f.Cleanup(func() { svc.Close() })
	srv := NewServer(svc)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if !(rec.Code >= 200 && rec.Code < 300 || rec.Code >= 400 && rec.Code < 500) {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		// Decode as the server does. A body that parses and carries a
		// negative field must get 400 whatever the backlog, so the check
		// holds once the backlog is full and valid bodies get 429.
		var req SubmitRequest
		dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
		if dec.Decode(&req) != nil {
			return
		}
		for i, ts := range req.Tasks {
			if (ts.DurationNs < 0 || ts.InputSize < 0 || ts.NetDemand < 0) && rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d for task %d with a negative field %+v: %q", rec.Code, i, ts, body)
			}
		}
	})
}
