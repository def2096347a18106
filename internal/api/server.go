package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"firmament/internal/cluster"
	"firmament/internal/service"
)

const (
	// maxBodyBytes bounds request bodies; the largest legitimate body is a
	// maxTasksPerJob submission (~40 bytes of JSON per task).
	maxBodyBytes = 8 << 20
	// maxTasksPerJob bounds one submission, keeping a single request from
	// exhausting the scheduler with one decoded body.
	maxTasksPerJob = 1 << 16
)

// Server is the HTTP front door over a scheduling service. It implements
// http.Handler; wrap it in an http.Server (or use ListenAndServe) to put a
// Firmament scheduler on the network.
type Server struct {
	svc *service.Service
	mux *http.ServeMux
}

// NewServer builds the front door over svc.
func NewServer(svc *service.Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/tasks/complete", s.handleCompleteBatch)
	s.mux.HandleFunc("POST /v1/tasks/{id}/complete", s.handleComplete)
	s.mux.HandleFunc("POST /v1/machines/{id}/remove", s.handleMachineOp(s.svc.RemoveMachine))
	s.mux.HandleFunc("POST /v1/machines/{id}/restore", s.handleMachineOp(s.svc.RestoreMachine))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	return s
}

// ServeHTTP dispatches to the v1 routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ListenAndServe serves the front door on addr until the listener fails.
// For graceful shutdown, wrap the Server in your own http.Server instead.
func (s *Server) ListenAndServe(addr string) error {
	return (&http.Server{Addr: addr, Handler: s}).ListenAndServe()
}

// fail writes err with the status its class maps to (429/503/400).
func (s *Server) fail(w http.ResponseWriter, err error) {
	writeError(w, statusOf(err), err.Error())
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	class, err := parseClass(req.Class)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Tasks) == 0 {
		writeError(w, http.StatusBadRequest, "a job needs at least one task")
		return
	}
	if len(req.Tasks) > maxTasksPerJob {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d tasks exceeds the %d per-job limit", len(req.Tasks), maxTasksPerJob))
		return
	}
	specs := make([]cluster.TaskSpec, len(req.Tasks))
	for i, ts := range req.Tasks {
		if specs[i], err = ts.toCluster(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("task %d: %v", i, err))
			return
		}
	}
	var job *cluster.Job
	if r.URL.Query().Get("wait") == "1" {
		// Park under the request context: a client that gives up and
		// disconnects releases its handler instead of leaving it waiting
		// forever — and, worse, submitting an ownerless job once the
		// backlog finally drains.
		job, err = s.svc.SubmitWaitCtx(r.Context(), class, req.Priority, specs)
	} else {
		job, err = s.svc.Submit(class, req.Priority, specs)
	}
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nobody is reading the response
		}
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Job: job.ID, Tasks: job.Tasks})
}

// pathID parses the {id} path segment as a signed integer of the given bit
// size. Task IDs are 64-bit; machine IDs 32-bit — parsing at the target
// width rejects out-of-range values instead of silently truncating them
// onto a valid ID (a 2^32 machine ID must 400, not wrap to machine 0).
func pathID(r *http.Request, bits int) (int64, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseInt(raw, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("bad id %q: %w", raw, err)
	}
	return id, nil
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.svc.Complete(cluster.TaskID(id)); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct{}{})
}

func (s *Server) handleCompleteBatch(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Tasks) == 0 {
		writeError(w, http.StatusBadRequest, "no task ids")
		return
	}
	for _, id := range req.Tasks {
		if err := s.svc.Complete(id); err != nil {
			s.fail(w, err)
			return
		}
	}
	writeJSON(w, http.StatusAccepted, struct{}{})
}

func (s *Server) handleMachineOp(op func(cluster.MachineID) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r, 32)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := op(cluster.MachineID(id)); err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, struct{}{})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsFromService(s.svc.Stats()))
}

// handleHealthz reports the scheduler's health: 200 while ok, 503 while
// degraded (scheduling volatile after a WAL failure) or failed (loop dead
// or service closed). The JSON body carries the state and cause in every
// case, so probes that only read the status code and operators that read
// the body both get an answer.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.svc.Health()
	status := http.StatusOK
	if h.State != service.HealthOK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, healthToWire(h))
}

// handleWatch bridges Service.Watch onto the response as an NDJSON stream.
// Each connection owns one subscriber channel; if this connection's writes
// fall behind, the channel fills and the service drops events for it —
// the scheduling loop never blocks on a slow client.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := s.svc.Watch()
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush() // headers out immediately so the client sees the stream open

	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return // client went away
		case p, ok := <-ch:
			if !ok {
				return // service closed
			}
			if err := enc.Encode(placementToWire(p)); err != nil {
				return
			}
			// Flush when the subscriber channel is drained: bursts of
			// placements coalesce into one flush instead of one syscall
			// per event.
			if len(ch) == 0 {
				fl.Flush()
			}
		}
	}
}
