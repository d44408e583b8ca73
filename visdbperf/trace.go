package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// clockBase anchors the benchmark's clock: every latency and span is
// read from the monotonic clock as nanoseconds since process start.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// span is one timed call across a layer boundary. Spans of one
// operation share the session ID; nesting is by time containment,
// since an analyst drives its session one call at a time.
type span struct {
	Layer   string `json:"layer"`
	Session string `json:"session,omitempty"`
	Path    string `json:"path,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Engine is the engine's StageTimings.Total reported by the
	// response (server spans only).
	Engine int64 `json:"engine_ns,omitempty"`
	// Bytes is the response body size (server spans only).
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps the spans and kv counters of a traced phase in memory;
// write dumps them at the end. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
	kv    kvCounters
}

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far and the kv counters.
func (t *tracer) snapshot() ([]span, kvCounters) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.kv
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	spans, _ := t.snapshot()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// spanHandler records a span of the given layer around every request
// the wrapped handler serves.
type spanHandler struct {
	layer string
	next  http.Handler
	tr    *tracer
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := nowNS()
	rec := &recorder{ResponseWriter: w, keep: r.Method != http.MethodGet}
	h.next.ServeHTTP(rec, r)
	s := span{Layer: h.layer, Path: r.Method + " " + r.URL.Path, Start: start, End: nowNS(), Bytes: rec.n}
	// "/v1/sessions/{id}/..." names the session; other paths start
	// with "/" and yield "".
	s.Session, _, _ = strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"), "/")
	if rec.keep {
		// Mutations answer a summary; creation answers the session
		// info, which is also where a new session's ID is learned.
		var body struct {
			ID      string        `json:"id"`
			Timings *wire.Timings `json:"timings"`
			Summary *wire.Summary `json:"summary"`
		}
		if json.Unmarshal(rec.body.Bytes(), &body) == nil {
			if body.ID != "" {
				s.Session = body.ID
			}
			if body.Summary != nil {
				body.Timings = &body.Summary.Timings
			}
			if body.Timings != nil {
				s.Engine = body.Timings.TotalNS
			}
		}
	}
	h.tr.add(s)
}

// recorder counts the response bytes and keeps the body of mutation
// responses, which are small summaries.
type recorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
	n    int64
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	n, err := r.ResponseWriter.Write(p)
	r.n += int64(n)
	return n, err
}

// tracedBackend times every call a member's shared tier makes into
// its kv backend.
type tracedBackend struct {
	next core.SharedBackend
	tr   *tracer
}

func (b *tracedBackend) Get(key string) ([]byte, bool) {
	t0 := nowNS()
	v, ok := b.next.Get(key)
	d := nowNS() - t0
	b.tr.mu.Lock()
	b.tr.kv.gets++
	b.tr.kv.getNS += d
	if ok {
		b.tr.kv.hits++
		b.tr.kv.inBytes += int64(len(v))
	}
	b.tr.mu.Unlock()
	return v, ok
}

func (b *tracedBackend) Put(key string, val []byte) {
	t0 := nowNS()
	b.next.Put(key, val)
	d := nowNS() - t0
	b.tr.mu.Lock()
	b.tr.kv.puts++
	b.tr.kv.putNS += d
	b.tr.kv.outBytes += int64(len(val))
	b.tr.mu.Unlock()
}

// BreakerState passes the kv client's breaker through, so the shared
// tier's stats still report it under tracing.
func (b *tracedBackend) BreakerState() (string, uint64, uint64) {
	if br, ok := b.next.(core.BreakerReporter); ok {
		return br.BreakerState()
	}
	return "", 0, 0
}
