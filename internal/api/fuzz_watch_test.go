package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"firmament/internal/service"
)

// serveBody answers every request with a 200 carrying body, and records
// the path asked for.
type serveBody struct {
	body []byte
	path string
}

func (s *serveBody) RoundTrip(req *http.Request) (*http.Response, error) {
	s.path = req.URL.Path
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(s.body)),
		Request:    req,
	}, nil
}

// FuzzWatchStream serves an arbitrary body on /v1/watch to Client.Watch.
// The stream must never panic or hang, C must close, the placements it
// delivers must be exactly those a plain json.Decoder + toService pass
// yields over the same bytes, and Err must be nil exactly when that pass
// ends at a clean EOF.
func FuzzWatchStream(f *testing.F) {
	valid := `{"task":4294967296,"job":1,"kind":"placed","machine":3,"round":7,"latency_ns":1500}
{"task":4294967297,"job":1,"kind":"migrated","machine":0,"round":8}
{"task":4294967296,"job":1,"kind":"preempted","machine":-1,"round":9}
`
	for _, seed := range []string{
		valid,
		valid[:len(valid)/2], // a truncated line
		`{"task":1,"job":0,"kind":"placed","machine":2,"round":1}` + "\n" + `{"task":2,"kind":"pla`,
		`{"task":1,"kind":"teleported"}`,
		"garbage\x00{]",
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want []service.Placement
		clean := false
		dec := json.NewDecoder(bytes.NewReader(body))
		for {
			var wp Placement
			if err := dec.Decode(&wp); err != nil {
				clean = errors.Is(err, io.EOF)
				break
			}
			p, err := wp.toService()
			if err != nil {
				break
			}
			want = append(want, p)
		}

		rt := &serveBody{body: body}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w, err := NewClient("http://front-door", &http.Client{Transport: rt}).Watch(ctx)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		defer w.Cancel()
		if rt.path != "/v1/watch" {
			t.Fatalf("Watch asked for %q, want /v1/watch", rt.path)
		}
		var got []service.Placement
		for p := range w.C {
			got = append(got, p)
		}
		if ctx.Err() != nil {
			t.Fatal("the watch stream hung")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
		if err := w.Err(); (err == nil) != clean {
			t.Fatalf("Err() = %v, but the reference decode ended clean=%v", err, clean)
		}
	})
}
