package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// postSweep issues a POST /v1/sweep and returns status, content type
// and body.
func postSweep(t *testing.T, ts *httptest.Server, query, body, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(out)
}

// TestEveryListedMachineServes: every label /v1/machines lists answers
// 200 on every GET endpoint that takes a machine label, so the
// endpoints cannot drift apart on which machines exist.
func TestEveryListedMachineServes(t *testing.T) {
	s := New(Options{Parallel: 2})
	var list struct {
		Machines []struct {
			Label string `json:"label"`
		} `json:"machines"`
	}
	if err := json.Unmarshal(doGet(t, s, "/v1/machines", nil).Body.Bytes(), &list); err != nil || len(list.Machines) == 0 {
		t.Fatalf("/v1/machines: %d machines, %v", len(list.Machines), err)
	}
	for _, m := range list.Machines {
		for _, endpoint := range []string{"/v1/machines/", "/v1/roofline/", "/v1/cluster/"} {
			if w := doGet(t, s, endpoint+m.Label, nil); w.Code != http.StatusOK {
				t.Errorf("%s%s: status %d: %s", endpoint, m.Label, w.Code, w.Body)
			}
		}
	}
}

func TestMachinesList(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	status, ctype, body := get(t, ts, "/v1/machines", "")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d ctype %s", status, ctype)
	}
	var resp struct {
		Machines []struct {
			Label       string  `json:"label"`
			Cores       int     `json:"cores"`
			ClockGHz    float64 `json:"clock_ghz"`
			NUMARegions int     `json:"numa_regions"`
			VectorISA   string  `json:"vector_isa"`
		} `json:"machines"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Machines) != 9 {
		t.Fatalf("%d machines, want 9 (the paper's seven + SG2044 + SG2042x2)", len(resp.Machines))
	}
	byLabel := map[string]int{}
	for i, m := range resp.Machines {
		byLabel[m.Label] = i
	}
	sg, ok := byLabel["SG2042"]
	if !ok {
		t.Fatal("SG2042 missing from the registry listing")
	}
	if m := resp.Machines[sg]; m.Cores != 64 || m.ClockGHz != 2.0 || m.NUMARegions != 4 || m.VectorISA != "rvv0.7.1" {
		t.Errorf("SG2042 summary wrong: %+v", m)
	}
	if _, ok := byLabel["SG2044"]; !ok {
		t.Error("SG2044 missing from the registry listing")
	}
}

// TestMachineSpecRoundTrips: the spec served by GET /v1/machines/{name}
// decodes through repro.MachineFromJSON back into the preset.
func TestMachineSpecRoundTrips(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	for _, label := range []string{"SG2042", "sg2044", "Rome"} {
		status, ctype, body := get(t, ts, "/v1/machines/"+label, "")
		if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
			t.Fatalf("%s: status %d ctype %s", label, status, ctype)
		}
		m, err := repro.MachineFromJSON([]byte(body))
		if err != nil {
			t.Fatalf("%s: served spec does not decode: %v", label, err)
		}
		if !strings.EqualFold(m.Label, label) {
			t.Errorf("%s: decoded label %q", label, m.Label)
		}
	}

	status, _, body := get(t, ts, "/v1/machines/SG9999", "")
	if status != http.StatusNotFound {
		t.Fatalf("unknown machine: status %d", status)
	}
	if !strings.Contains(body, "SG9999") || !strings.Contains(body, "SG2042") {
		t.Errorf("404 body should name the bad label and the known ones: %s", body)
	}
}

const vectorSweepBody = `{"machine": "SG2042", "axis": "vector", "values": [128, 256, 512], "threads": 1}`

// TestSweepEndpointByteIdentical is the acceptance criterion: the text
// and CSV bodies of POST /v1/sweep are byte-identical to the library
// rendering cmd/sg2042sim -sweep prints.
func TestSweepEndpointByteIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	spec := repro.SweepSpec{Base: repro.SG2042(), Axis: repro.SweepVector,
		Values: []float64{128, 256, 512}, Threads: 1, Prec: repro.F64}
	wantText, err := repro.RunSweep(spec, repro.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := repro.RunSweep(spec, repro.Options{Parallel: 1, CSV: true})
	if err != nil {
		t.Fatal(err)
	}

	status, ctype, body := postSweep(t, ts, "", vectorSweepBody, "")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("text: status %d ctype %s body %s", status, ctype, body)
	}
	if body != wantText {
		t.Error("text body differs from the library rendering")
	}

	status, ctype, body = postSweep(t, ts, "?format=csv", vectorSweepBody, "")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("csv: status %d ctype %s", status, ctype)
	}
	if body != wantCSV {
		t.Error("CSV body differs from the library rendering")
	}

	// Accept-header negotiation works on the POST too.
	status, _, body = postSweep(t, ts, "", vectorSweepBody, "text/csv")
	if status != http.StatusOK || body != wantCSV {
		t.Error("Accept: text/csv negotiation failed")
	}

	// JSON envelope wraps the exact text bytes.
	status, ctype, body = postSweep(t, ts, "?format=json", vectorSweepBody, "")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("json: status %d ctype %s", status, ctype)
	}
	var env struct {
		Machine, Axis, Title, Format, Output string
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Machine != "SG2042" || env.Axis != "vector" || env.Format != "text" {
		t.Errorf("envelope fields wrong: %+v", env)
	}
	if env.Output != wantText {
		t.Error("JSON envelope output differs from the text rendering")
	}
	if !strings.HasPrefix(wantText, env.Title) {
		t.Errorf("title %q is not the output heading", env.Title)
	}
}

// TestNodesSweepEndpointByteIdentical extends the byte-identity
// contract to the topology axes: a nodes sweep past 64 cores serves
// the exact bytes the library (and therefore cmd/sg2042sim -sweep
// nodes=...) renders for the same spec.
func TestNodesSweepEndpointByteIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	spec := repro.SweepSpec{Base: repro.SG2042(), Axis: repro.SweepNodes,
		Values: []float64{1, 2, 4}, Prec: repro.F64}
	wantText, err := repro.RunSweep(spec, repro.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"machine": "SG2042", "axis": "nodes", "values": [1, 2, 4]}`
	status, _, out := postSweep(t, ts, "", body, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	if out != wantText {
		t.Error("nodes sweep body differs from the library rendering")
	}
	for _, want := range []string{"SG2042/node2", "SG2042/node4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// The sockets axis serves too, on the dual-socket preset's base.
	status, _, out = postSweep(t, ts, "",
		`{"machine": "SG2042", "axis": "sockets", "values": [2]}`, "")
	if status != http.StatusOK || !strings.Contains(out, "SG2042/s2") {
		t.Errorf("sockets sweep: status %d body %s", status, out)
	}
}

// TestSweepCustomSpec: an inline machine spec — the GET /v1/machines
// form — sweeps without being registered.
func TestSweepCustomSpec(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	_, _, spec := get(t, ts, "/v1/machines/SG2044", "")
	custom := strings.Replace(spec, `"label": "SG2044"`, `"label": "myrv64"`, 1)
	body := `{"spec": ` + custom + `, "axis": "numa", "values": [1, 2, 4]}`
	status, _, out := postSweep(t, ts, "", body, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	for _, want := range []string{"myrv64/n1", "myrv64/n2", "myrv64/n4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestSweepErrors: the 400-vs-404 split — client mistakes in the spec
// or parameters are 400s naming the problem; an unknown registry label
// is a 404.
func TestSweepErrors(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	badSpec := func(mutate func(string) string) string {
		_, _, spec := get(t, ts, "/v1/machines/SG2042", "")
		return `{"spec": ` + mutate(spec) + `, "axis": "cores", "values": [4]}`
	}

	cases := []struct {
		name       string
		query      string
		body       string
		wantStatus int
		wantErr    string
	}{
		{"unknown machine", "", `{"machine": "SG9999", "axis": "cores", "values": [4]}`,
			http.StatusNotFound, "SG9999"},
		{"no base", "", `{"axis": "cores", "values": [4]}`,
			http.StatusBadRequest, "needs a base"},
		{"both bases", "", `{"machine": "SG2042", "spec": {"name": "x"}, "axis": "cores", "values": [4]}`,
			http.StatusBadRequest, "not both"},
		{"unknown axis", "", `{"machine": "SG2042", "axis": "dies", "values": [2]}`,
			http.StatusBadRequest, "unknown sweep axis"},
		{"no values", "", `{"machine": "SG2042", "axis": "cores"}`,
			http.StatusBadRequest, "no values"},
		{"fractional cores", "", `{"machine": "SG2042", "axis": "cores", "values": [2.5]}`,
			http.StatusBadRequest, "integer"},
		{"vectorless widen", "", `{"machine": "V2", "axis": "vector", "values": [256]}`,
			http.StatusBadRequest, "no vector unit"},
		{"uneven numa", "", `{"machine": "SG2042", "axis": "numa", "values": [3]}`,
			http.StatusBadRequest, "divide"},
		{"bad prec", "", `{"machine": "SG2042", "axis": "cores", "values": [4], "prec": "f16"}`,
			http.StatusBadRequest, "f16"},
		{"bad placement", "", `{"machine": "SG2042", "axis": "cores", "values": [4], "placement": "spiral"}`,
			http.StatusBadRequest, "spiral"},
		{"bad format", "?format=xml", vectorSweepBody,
			http.StatusBadRequest, "xml"},
		{"unknown field", "", `{"machine": "SG2042", "axis": "cores", "values": [4], "model": "x"}`,
			http.StatusBadRequest, "model"},
		{"garbage body", "", `{`,
			http.StatusBadRequest, "decoding"},
		{"zero-core spec", "", badSpec(func(s string) string {
			return strings.Replace(s, `"cores": 64`, `"cores": 0`, 1)
		}), http.StatusBadRequest, "cores"},
		{"bad NUMA map spec", "", badSpec(func(s string) string {
			return strings.Replace(s, `"numa_regions": 4`, `"numa_regions": 5`, 1)
		}), http.StatusBadRequest, "NUMA"},
		{"unknown ISA spec", "", badSpec(func(s string) string {
			return strings.Replace(s, `"isa": "rvv0.7.1"`, `"isa": "sve2"`, 1)
		}), http.StatusBadRequest, "unknown vector ISA"},
	}
	for _, tc := range cases {
		status, ctype, body := postSweep(t, ts, tc.query, tc.body, "")
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
			continue
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("%s: error content type %s", tc.name, ctype)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Errorf("%s: error body is not JSON: %s", tc.name, body)
			continue
		}
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantErr)
		}
	}
}

// TestConcurrentSweepsCoalesce: identical concurrent sweeps share suite
// evaluations through the engine's singleflight cache instead of
// multiplying model work.
func TestConcurrentSweepsCoalesce(t *testing.T) {
	srv := New(Options{Parallel: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	outs := make([]string, n)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, outs[i] = postSweep(t, ts, "", vectorSweepBody, "")
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("concurrent sweep %d differs from the first", i)
		}
	}
	// One sweep needs 4 configurations (base + 3 points); concurrent
	// identical sweeps must singleflight instead of evaluating 24.
	if _, misses := srv.Engine().CacheStats(); misses > 4 {
		t.Errorf("misses = %d, want <= 4", misses)
	}
	// The identical sweeps themselves coalesce on the render cache:
	// one fill, five shared renderings.
	rhits, rmisses := srv.rc.Stats()
	if rmisses != 1 {
		t.Errorf("render cache misses = %d, want 1 (identical sweeps must share one render)", rmisses)
	}
	if rhits != n-1 {
		t.Errorf("render cache hits = %d, want %d", rhits, n-1)
	}
}

// TestSweepMetricsInstrumented: the sweep and machine endpoints report
// through /metrics like every other route.
func TestSweepMetricsInstrumented(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	get(t, ts, "/v1/machines", "")
	get(t, ts, "/v1/machines/SG2042", "")
	postSweep(t, ts, "", `{"machine": "SG2042", "axis": "clock", "values": [2.0], "threads": 1}`, "")
	postSweep(t, ts, "", `{"machine": "SG9999", "axis": "clock", "values": [2.0]}`, "")

	_, _, body := get(t, ts, "/metrics", "")
	for _, want := range []string{
		`sg2042d_requests_total{endpoint="machines"} 1`,
		`sg2042d_requests_total{endpoint="machine"} 1`,
		`sg2042d_requests_total{endpoint="sweep"} 2`,
		`sg2042d_request_errors_total{endpoint="sweep"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
