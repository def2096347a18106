package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firmament/bench/delayfs"
)

// A span is one timed call at a boundary the harness owns. Spans of one
// job share Job; Parent names the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    int64  `json:"job,omitempty"` // job ID, or batch size / round number where no job applies
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; past it spans are counted, not kept.
const maxSpans = 2 << 20

// tracer keeps spans in memory while on and writes them out at the end of
// the run. A nil *tracer is a tracer that is always off.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64

	// HTTP accounting, gathered by the middleware while on.
	httpBytes  atomic.Int64
	httpErrors atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin reserves a span ID (so children started before the span ends can
// name it) and reads the clock.
func (t *tracer) begin() (uint64, time.Time) { return t.ids.Add(1), time.Now() }

// end finishes a root span whose ID begin reserved.
func (t *tracer) end(id uint64, name string, job int64, start time.Time) {
	t.add(span{ID: id, Name: name, Job: job,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch))})
}

// record adds a finished span of known duration.
func (t *tracer) record(parent uint64, name string, job int64, start time.Time, took time.Duration) {
	s := int64(start.Sub(t.epoch))
	t.add(span{ID: t.ids.Add(1), Parent: parent, Name: name, Job: job, Start: s, End: s + int64(took)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// diskHook is the delayfs.FS hook: one span per journal write and sync.
func (t *tracer) diskHook(op delayfs.Op, path string, start time.Time, took time.Duration, bytes int) {
	if !t.enabled() {
		return
	}
	t.record(0, "wal.fs."+op.String(), int64(bytes), start, took)
}

// countingWriter counts response bytes and remembers the status; it keeps
// Flush working because the watch handler streams.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps the API handler — the seam api.NewServer already
// exposes — with a span per request and byte and error counts. With the
// tracer off a request costs one atomic load more. The watch stream is one
// request that lasts the whole run, so its bytes are counted as they are
// written, while the tracer is on.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() && r.URL.Path != "/v1/watch" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		if r.URL.Path == "/v1/watch" {
			// Lives for the whole run: count its bytes as they go out.
			h.ServeHTTP(&watchWriter{countingWriter: cw, t: t}, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(cw, r)
		took := time.Since(start)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		t.record(parent, "api.handler"+routeName(r.URL.Path), 0, start, took)
		t.httpBytes.Add(max(r.ContentLength, 0) + cw.n)
		if cw.status >= 400 {
			t.httpErrors.Add(1)
		}
	})
}

// watchWriter adds the stream's bytes to the tracer's count while it is on.
type watchWriter struct {
	*countingWriter
	t *tracer
}

func (w *watchWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	if w.t.enabled() {
		w.t.httpBytes.Add(int64(n))
	}
	return n, err
}

func routeName(path string) string {
	switch {
	case path == "/v1/jobs":
		return ".submit"
	case path == "/v1/tasks/complete":
		return ".complete_batch"
	case strings.HasPrefix(path, "/v1/machines/"):
		return ".machine_op"
	}
	return ".other"
}

// durations returns the durations of every span with the given name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// childGaps returns, for every span named child whose parent is a span
// named parent, the parent's duration minus the child's, in microseconds:
// the time the parent spent outside that child.
func (t *tracer) childGaps(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Name == parent {
			byID[s.ID] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == child {
			if pd, ok := byID[s.Parent]; ok {
				out = append(out, float64(pd-(s.End-s.Start))/1e3)
			}
		}
	}
	return out
}

// nameSummary is the per-name roll-up written next to the spans.
type nameSummary struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"` // total minus the part covered by child spans
	P50US   float64 `json:"p50_us"`
}

// summarize computes each name's total and self time. A span's self time
// is its duration minus the part of its interval its children cover.
func summarize(spans []span) map[string]nameSummary {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]nameSummary)
	for _, s := range spans {
		d := float64(s.End - s.Start)
		covered := 0.0
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		at := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += float64(hi - lo)
				at = hi
			}
		}
		ns := out[s.Name]
		ns.Count++
		ns.TotalUS += d / 1e3
		ns.SelfUS += (d - covered) / 1e3
		out[s.Name] = ns
		durs[s.Name] = append(durs[s.Name], d/1e3)
	}
	for name, ns := range out {
		ns.P50US = percentile(durs[name], 50)
		out[name] = ns
	}
	return out
}

// write stores the spans and their summary as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Dropped  int64                  `json:"dropped_spans"`
		Summary  map[string]nameSummary `json:"summary"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, t.dropped, summarize(t.spans), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
