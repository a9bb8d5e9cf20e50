package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTracerParentsBySession(t *testing.T) {
	tr := newTracer()
	phase := tr.beginPhase("rounds")
	a := tr.begin("client", "observe", "a", 7)
	b := tr.begin("client", "suggest", "b", 8)
	ha := tr.begin("handler", "observe", "a", -1)
	sa := tr.begin("store", "save", "a", -1)
	tr.end(sa, 512)
	tr.end(ha, 0)
	hb := tr.begin("handler", "suggest", "b", -1)
	tr.end(hb, 0)
	tr.end(b, 0)
	tr.end(a, 0)
	loose := tr.begin("store", "load", "c", -1)
	tr.end(loose, 0)
	tr.endPhase(phase)
	spans := tr.take()

	want := map[int]struct {
		parent int
		round  int64
	}{
		a:     {phase, 7},
		b:     {phase, 8},
		ha:    {a, 7},
		sa:    {ha, 7},
		hb:    {b, 8},
		loose: {phase, -1},
	}
	for id, w := range want {
		if s := spans[id]; s.Parent != w.parent || s.Round != w.round {
			t.Errorf("span %d (%s %s): parent %d round %d; want parent %d round %d",
				id, s.Layer, s.Name, s.Parent, s.Round, w.parent, w.round)
		}
	}
	if spans[sa].Bytes != 512 {
		t.Errorf("store span bytes = %d, want 512", spans[sa].Bytes)
	}
	if len(tr.take()) != 0 {
		t.Error("take did not reset the buffer")
	}
}

func TestRouteNamesSessionAndKeepsBody(t *testing.T) {
	for _, c := range []struct{ method, path, name, sid string }{
		{"POST", "/v1/sessions/s-1/suggest", "suggest", "s-1"},
		{"POST", "/v1/sessions/s-1/observe", "observe", "s-1"},
		{"DELETE", "/v1/sessions/s-1", "delete", "s-1"},
		{"GET", "/v1/sessions/s-1", "get", "s-1"},
		{"GET", "/healthz", "other", ""},
	} {
		name, sid := route(httptest.NewRequest(c.method, c.path, nil))
		if name != c.name || sid != c.sid {
			t.Errorf("%s %s: %q %q, want %q %q", c.method, c.path, name, sid, c.name, c.sid)
		}
	}
	body := `{"id":"e0-c1-s2","workload":"WC"}`
	r := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body))
	name, sid := route(r)
	if name != "create" || sid != "e0-c1-s2" {
		t.Errorf("create: %q %q", name, sid)
	}
	rest, _ := io.ReadAll(r.Body)
	if string(rest) != body {
		t.Errorf("body after route = %q, want it intact", rest)
	}
}
