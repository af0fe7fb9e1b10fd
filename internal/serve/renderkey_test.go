package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// inlineSpec returns base's JSON machine spec with one top-level field
// replaced.
func inlineSpec(t *testing.T, base *repro.Machine, field string, value any) string {
	t.Helper()
	data, err := repro.MachineJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m[field]; !ok {
		t.Fatalf("machine spec has no field %q", field)
	}
	m[field] = value
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// postETag serves one POST and returns its ETag.
func postETag(t *testing.T, s *Server, path, body string) string {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, w.Code, w.Body)
	}
	return w.Header().Get("ETag")
}

// TestSweepAndCampaignRenderKeysDistinct: sweep and campaign bodies are
// cached under the spec's content key, so two requests that differ in
// one field of an inline machine spec, or in the last bit of one axis
// value, must each render (two misses) and answer different bytes (two
// ETags) — never share an entry.
func TestSweepAndCampaignRenderKeysDistinct(t *testing.T) {
	v2 := repro.VisionFiveV2()
	const clock = 1.5
	nextClock := strconv.FormatFloat(math.Nextafter(clock, 2), 'g', -1, 64)
	latency := func(ns float64) string { return inlineSpec(t, v2, "mem_latency_ns", ns) }

	pairs := []struct {
		name, path string
		a, b       string
	}{
		{"sweep/inline-field", "/v1/sweep",
			`{"spec": ` + latency(150) + `, "axis": "clock", "values": [1.0, 1.5]}`,
			`{"spec": ` + latency(240) + `, "axis": "clock", "values": [1.0, 1.5]}`},
		{"sweep/axis-last-bit", "/v1/sweep",
			`{"machine": "V2", "axis": "clock", "values": [1.0, 1.5]}`,
			`{"machine": "V2", "axis": "clock", "values": [1.0, ` + nextClock + `]}`},
		{"campaign/inline-field", "/v1/campaign",
			`{"specs": [` + latency(150) + `], "axes": [{"axis": "clock", "values": [1.0]}]}`,
			`{"specs": [` + latency(240) + `], "axes": [{"axis": "clock", "values": [1.0]}]}`},
		{"campaign/axis-last-bit", "/v1/campaign",
			`{"machines": ["V2"], "axes": [{"axis": "clock", "values": [1.5]}]}`,
			`{"machines": ["V2"], "axes": [{"axis": "clock", "values": [` + nextClock + `]}]}`},
	}
	s := New(Options{Parallel: 2})
	for _, p := range pairs {
		_, before := s.rc.Stats()
		ea := postETag(t, s, p.path, p.a)
		eb := postETag(t, s, p.path, p.b)
		if _, after := s.rc.Stats(); after-before != 2 {
			t.Errorf("%s: %d render-cache misses, want 2", p.name, after-before)
		}
		if ea == eb {
			t.Errorf("%s: both requests answered ETag %s", p.name, ea)
		}
	}
}

// TestClusterNetworkSpellingsShareEntry: ?net= is canonicalized before
// keying, so every spelling of one interconnect is a hit on the entry
// the first one rendered, with the same ETag.
func TestClusterNetworkSpellingsShareEntry(t *testing.T) {
	s := New(Options{Parallel: 1})
	first := doGet(t, s, "/v1/cluster/SG2042?net=ib", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	hits, misses := s.rc.Stats()
	for _, net := range []string{"IB", "infiniband"} {
		w := doGet(t, s, "/v1/cluster/SG2042?net="+net, nil)
		if w.Code != http.StatusOK || w.Header().Get("ETag") != first.Header().Get("ETag") {
			t.Errorf("net=%s: status %d, ETag %q, want 200 and %q",
				net, w.Code, w.Header().Get("ETag"), first.Header().Get("ETag"))
		}
	}
	if h, m := s.rc.Stats(); h != hits+2 || m != misses {
		t.Errorf("IB and infiniband after ib: %d hits, %d misses, want 2 hits, 0 misses", h-hits, m-misses)
	}
	// The default is ib too.
	if w := doGet(t, s, "/v1/cluster/SG2042", nil); w.Header().Get("ETag") != first.Header().Get("ETag") {
		t.Error("the default network renders different bytes from net=ib")
	}
}
