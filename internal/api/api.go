// Package api is Firmament's network front door: an HTTP/JSON service API
// over the serving layer (internal/service), plus a Go client that drives
// the same submit/complete/machine-ops/stats surface remotely. It is how a
// cluster manager integrates Firmament as its scheduler (the paper deploys
// Firmament inside a cluster manager where submitters and machine agents
// are remote processes, not goroutines). Everything is stdlib-only:
// net/http for transport, encoding/json for the wire.
//
// # Wire protocol
//
// All requests and responses are JSON. Errors use a uniform envelope
// {"error": "message"} with the status code carrying the class:
//
//   - 400 — validation failure (malformed JSON, unknown job class, empty
//     task list, non-numeric or out-of-range IDs, unknown machine IDs;
//     task completions are the exception — see below)
//   - 429 — the scheduler's pending backlog exceeds the configured
//     admission ceiling (service.ErrBacklogged); retry later or submit
//     with ?wait=1
//   - 503 — the service is closed or its scheduling loop has died
//     (service.ErrClosed)
//
// Endpoints:
//
//	POST /v1/jobs                   submit a job: {"class":"batch","priority":0,"tasks":[{...}]}
//	                                → {"job":1,"tasks":[4294967296,...]}
//	                                ?wait=1 blocks while backlogged instead
//	                                of failing with 429 (service.SubmitWait);
//	                                a client that disconnects while parked
//	                                releases its admission without
//	                                submitting — no orphan jobs
//	POST /v1/tasks/{id}/complete    report one task completion (queued; enacted
//	                                at the next round start) → 202
//	POST /v1/tasks/complete         batch form: {"tasks":[id,...]} → 202
//	POST /v1/machines/{id}/remove   queue a machine failure → 202
//	POST /v1/machines/{id}/restore  queue the machine's return → 202
//	GET  /v1/stats                  counters and distribution summaries
//	GET  /v1/watch                  placement event stream
//
// Completions and machine ops return 202 Accepted: they are queued on the
// service's ingestion queue and enacted at the next scheduling round.
// Completions are accepted unvalidated — a task ID that is unknown, or
// that races a preemption, is counted as a stale completion at the drain
// rather than rejected here (the same semantics in-process callers get),
// so a 202 confirms queuing, not that the task exists.
//
// # Watch streaming
//
// GET /v1/watch streams newline-delimited JSON (NDJSON), one placement
// decision per line:
//
//	{"task":4294967296,"job":1,"kind":"placed","machine":3,"round":7,"latency_ns":812000}
//
// The stream is bridged from Service.Watch: each connection gets its own
// subscriber channel, and a client that reads too slowly loses events
// (counted in the service's WatchDropped) rather than stalling the
// scheduling loop. The stream ends when the client disconnects or the
// service closes.
package api

import (
	"encoding/json"
	"errors"
	"net/http"

	"firmament/internal/service"
)

// errorResponse is the uniform JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the error envelope with the given status code.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// statusOf maps a front-door error to its HTTP status: backpressure is 429,
// a closed service 503, and anything else a validation failure, 400.
func statusOf(err error) int {
	switch {
	case errors.Is(err, service.ErrBacklogged):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
