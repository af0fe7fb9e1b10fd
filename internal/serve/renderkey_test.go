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

// TestSpellingsShareEntry: the cluster report's ?net= and the report
// endpoints' machine label are canonicalized before keying, so every
// spelling is a hit on the entry the canonical request rendered, with
// the same ETag, and a JSON envelope names the canonical label.
func TestSpellingsShareEntry(t *testing.T) {
	cases := []struct {
		name, canonical string
		spellings       []string
	}{
		// The default network is ib too.
		{"cluster/net", "/v1/cluster/SG2042?net=ib",
			[]string{"/v1/cluster/SG2042?net=IB", "/v1/cluster/SG2042?net=infiniband", "/v1/cluster/SG2042"}},
		{"cluster/label", "/v1/cluster/SG2042",
			[]string{"/v1/cluster/sg2042", "/v1/cluster/Sg2042"}},
		{"cluster/label-json", "/v1/cluster/SG2042?format=json",
			[]string{"/v1/cluster/sg2042?format=json"}},
		{"roofline/label", "/v1/roofline/SG2042",
			[]string{"/v1/roofline/sg2042", "/v1/roofline/Sg2042"}},
		{"roofline/label-json", "/v1/roofline/SG2042?format=json",
			[]string{"/v1/roofline/sg2042?format=json"}},
		{"roofline/follow-up-json", "/v1/roofline/SG2042x2?format=json",
			[]string{"/v1/roofline/sg2042X2?format=json"}},
	}
	s := New(Options{Parallel: 1})
	for _, c := range cases {
		first := doGet(t, s, c.canonical, nil)
		if first.Code != http.StatusOK {
			t.Errorf("%s: %s: status %d: %s", c.name, c.canonical, first.Code, first.Body)
			continue
		}
		// "/v1/{report}/{label}?..." -> label
		label := strings.Split(strings.SplitN(c.canonical, "?", 2)[0], "/")[3]
		hits, misses := s.rc.Stats()
		for _, path := range c.spellings {
			w := doGet(t, s, path, nil)
			if w.Code != http.StatusOK || w.Header().Get("ETag") != first.Header().Get("ETag") {
				t.Errorf("%s: %s: status %d, ETag %q, want 200 and %q",
					c.name, path, w.Code, w.Header().Get("ETag"), first.Header().Get("ETag"))
			}
			var env reportJSON
			if strings.Contains(path, "format=json") {
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Machine != label {
					t.Errorf("%s: %s: envelope machine %q (%v), want %q", c.name, path, env.Machine, err, label)
				}
			}
		}
		if h, m := s.rc.Stats(); h != hits+uint64(len(c.spellings)) || m != misses {
			t.Errorf("%s: spellings after %s: %d hits, %d misses, want %d hits, 0 misses",
				c.name, c.canonical, h-hits, m-misses, len(c.spellings))
		}
	}
}

// TestUnknownMachineFillsNothing: the report endpoints resolve the
// machine label before they touch the render cache, so an unknown label
// is a 404 carrying the typed unknown-machine message and adds no
// render-cache miss.
func TestUnknownMachineFillsNothing(t *testing.T) {
	_, unknown := repro.DefaultMachineRegistry().Resolve("NotAMachine")
	if unknown == nil {
		t.Fatal("NotAMachine resolved")
	}
	s := New(Options{Parallel: 1})
	for _, path := range []string{
		"/v1/roofline/NotAMachine",
		"/v1/roofline/NotAMachine?prec=f32&format=json",
		"/v1/cluster/NotAMachine",
		"/v1/cluster/NotAMachine?sockets=2&format=binary",
	} {
		_, misses := s.rc.Stats()
		w := doGet(t, s, path, nil)
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusNotFound || body.Error != unknown.Error() {
			t.Errorf("%s: status %d, body %s, want 404 and %q", path, w.Code, w.Body, unknown)
		}
		if _, m := s.rc.Stats(); m != misses {
			t.Errorf("%s: %d render-cache misses, want 0", path, m-misses)
		}
	}
}
