package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"deepcat/internal/service"
)

// tracer records the benchmark's own spans around every call into a layer.
// Spans stay in memory until the run ends. A span's parent is the innermost
// span still open for the same session id, which is sound because a session
// has at most one operation in flight: its client waits for each reply.
// Other spans parent to the open phase span (setup, rounds or restart). A
// nil tracer records nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[string][]int // session id -> open span ids, innermost last
	phase int              // id of the open phase span, -1 when none
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[string][]int), phase: -1}
}

// begin opens a span. round tags the operation it belongs to; a child
// inherits its parent's round.
func (t *tracer) begin(layer, name, sid string, round int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.phase
	if st := t.open[sid]; sid != "" && len(st) > 0 {
		parent = st[len(st)-1]
	}
	if parent >= 0 && t.spans[parent].Layer != "phase" {
		round = t.spans[parent].Round
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: round, Layer: layer, Name: name, SID: sid, Start: now})
	if sid != "" {
		t.open[sid] = append(t.open[sid], id)
	}
	return id
}

// end closes span id, recording bytes moved when positive.
func (t *tracer) end(id, bytes int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Bytes = now, bytes
	if st := t.open[s.SID]; len(st) > 0 {
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == id {
				t.open[s.SID] = append(st[:i], st[i+1:]...)
				break
			}
		}
		if len(t.open[s.SID]) == 0 {
			delete(t.open, s.SID)
		}
	}
}

// beginPhase opens a root span that session-less calls parent to.
func (t *tracer) beginPhase(name string) int {
	if t == nil {
		return -1
	}
	id := t.begin("phase", name, "", -1)
	t.mu.Lock()
	t.phase = id
	t.mu.Unlock()
	return id
}

// endPhase closes the phase span opened by beginPhase.
func (t *tracer) endPhase(id int) {
	if t == nil {
		return
	}
	t.end(id, 0)
	t.mu.Lock()
	t.phase = -1
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh buffer.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	t.open = make(map[string][]int)
	t.phase = -1
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore wraps the daemon's checkpoint store with a span per call.
type timedStore struct {
	service.Store
	tr *tracer
}

func (s timedStore) Save(id string, data []byte) error {
	sp := s.tr.begin("store", "save", id, -1)
	err := s.Store.Save(id, data)
	s.tr.end(sp, len(data))
	return err
}

func (s timedStore) Load(id string) ([]byte, error) {
	sp := s.tr.begin("store", "load", id, -1)
	data, err := s.Store.Load(id)
	s.tr.end(sp, len(data))
	return data, err
}

func (s timedStore) Delete(id string) error {
	sp := s.tr.begin("store", "delete", id, -1)
	err := s.Store.Delete(id)
	s.tr.end(sp, 0)
	return err
}

// timedHandler wraps the daemon's HTTP handler with a span per request,
// keyed by the session id the request addresses.
type timedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, sid := route(r)
	sp := th.tr.begin("handler", name, sid, -1)
	th.h.ServeHTTP(w, r)
	th.tr.end(sp, 0)
}

// route names a request's endpoint and the session it addresses. A create
// carries its id in the body, which is read here and handed on intact.
func route(r *http.Request) (name, sid string) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/")
	if !ok {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			// A failed read leaves a short body that the daemon rejects, and
			// the client counts the failed create.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(body, &req)
			return "create", req.ID
		}
		return "other", ""
	}
	sid, op, _ := strings.Cut(rest, "/")
	switch {
	case op != "":
		return op, sid
	case r.Method == http.MethodDelete:
		return "delete", sid
	default:
		return "get", sid
	}
}
