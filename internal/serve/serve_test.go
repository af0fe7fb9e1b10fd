package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// get issues a GET against the server and returns status, content type
// and body.
func get(t *testing.T, ts *httptest.Server, path string, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestAllExperimentsAllFormats is the acceptance sweep: every
// experiment name serves in text, CSV and JSON, and the text/CSV bodies
// are byte-identical to the library renderings cmd/sg2042sim prints.
func TestAllExperimentsAllFormats(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	for _, name := range repro.ExperimentNames {
		wantText, err := repro.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		wantCSV, err := repro.RunExperimentCSV(name)
		if err != nil {
			t.Fatal(err)
		}

		status, ctype, body := get(t, ts, "/v1/experiments/"+name, "")
		if status != http.StatusOK {
			t.Fatalf("%s text: status %d", name, status)
		}
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Errorf("%s text: content type %q", name, ctype)
		}
		if body != wantText {
			t.Errorf("%s: text body differs from RunExperiment output", name)
		}

		status, ctype, body = get(t, ts, "/v1/experiments/"+name+"?format=csv", "")
		if status != http.StatusOK {
			t.Fatalf("%s csv: status %d", name, status)
		}
		// Table 4 has no CSV form: its body is the text fallback and is
		// labelled as such.
		wantCType := "text/csv"
		if name == "table4" {
			wantCType = "text/plain"
		}
		if !strings.HasPrefix(ctype, wantCType) {
			t.Errorf("%s csv: content type %q, want %s", name, ctype, wantCType)
		}
		if body != wantCSV {
			t.Errorf("%s: CSV body differs from RunExperimentCSV output", name)
		}

		status, ctype, body = get(t, ts, "/v1/experiments/"+name+"?format=json", "")
		if status != http.StatusOK {
			t.Fatalf("%s json: status %d", name, status)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("%s json: content type %q", name, ctype)
		}
		var env experimentJSON
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("%s json: %v", name, err)
		}
		if env.Name != name || env.Output != wantText {
			t.Errorf("%s: JSON envelope name=%q or output differs from text rendering", name, env.Name)
		}
		info, ok := repro.ExperimentByName(name)
		if !ok || env.Title != info.Title {
			t.Errorf("%s: JSON title %q, want %q", name, env.Title, info.Title)
		}
	}
}

// TestExperimentAll serves the full concatenated run, matching
// cmd/sg2042sim -exp all bytes.
func TestExperimentAll(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()
	want, err := repro.RunExperiment("all")
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := get(t, ts, "/v1/experiments/all", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if body != want {
		t.Error("GET /v1/experiments/all differs from RunExperiment(all)")
	}
}

// TestServedResponsesByteIdentical: a serial server, a parallel server,
// and warm (cached) repeats must all serve the same bytes.
func TestServedResponsesByteIdentical(t *testing.T) {
	serial := httptest.NewServer(New(Options{Parallel: 1}))
	defer serial.Close()
	parallel := httptest.NewServer(New(Options{Parallel: 8}))
	defer parallel.Close()

	for _, path := range []string{
		"/v1/experiments/figure1",
		"/v1/experiments/table2?format=csv",
		"/v1/experiments/figure6",
	} {
		_, _, cold := get(t, serial, path, "")
		_, _, warm := get(t, serial, path, "")
		_, _, coldPar := get(t, parallel, path, "")
		_, _, warmPar := get(t, parallel, path, "")
		if warm != cold {
			t.Errorf("%s: warm serial response differs from cold", path)
		}
		if coldPar != cold || warmPar != cold {
			t.Errorf("%s: parallel server response differs from serial", path)
		}
	}
}

// TestConcurrentRequestsCoalesce is the singleflight property over
// HTTP: many concurrent cold requests for one experiment must share a
// single set of suite computations (figure1 needs six configurations).
func TestConcurrentRequestsCoalesce(t *testing.T) {
	srv := New(Options{Parallel: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	bodies := make([]string, clients)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/experiments/figure1")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()

	want, err := repro.RunExperiment("figure1")
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		if body != want {
			t.Errorf("client %d: body differs from the serial reference", i)
		}
	}
	_, misses := srv.Engine().CacheStats()
	if misses > 6 {
		t.Errorf("%d concurrent requests evaluated %d configurations, want <= 6 (singleflight)", clients, misses)
	}
	// Identical requests coalesce one layer up now: the render cache
	// fills the body once, every other client shares it.
	rhits, rmisses := srv.rc.Stats()
	if rmisses != 1 {
		t.Errorf("render cache misses = %d, want 1 (identical requests must share one render)", rmisses)
	}
	if rhits != clients-1 {
		t.Errorf("render cache hits = %d, want %d", rhits, clients-1)
	}
}

func TestListExperiments(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()
	status, ctype, body := get(t, ts, "/v1/experiments", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("content type %q", ctype)
	}
	var resp struct {
		Experiments []repro.ExperimentInfo `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Experiments) != len(repro.ExperimentNames) {
		t.Fatalf("listed %d experiments, want %d", len(resp.Experiments), len(repro.ExperimentNames))
	}
	for i, info := range resp.Experiments {
		if info.Name != repro.ExperimentNames[i] {
			t.Errorf("experiment %d: name %q, want %q", i, info.Name, repro.ExperimentNames[i])
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/experiments:batch", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	status, body := post(`{"names": ["table4", "figure1"], "format": "csv"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp batchResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Name != "table4" || resp.Results[1].Name != "figure1" {
		t.Fatalf("unexpected batch results: %+v", resp.Results)
	}
	for _, res := range resp.Results {
		want, err := repro.RunExperimentCSV(res.Name)
		if err != nil {
			t.Fatal(err)
		}
		// table4 has no CSV form, so its result is honestly labelled
		// text.
		wantFormat := "csv"
		if res.Name == "table4" {
			wantFormat = "text"
		}
		if res.Output != want || res.Format != wantFormat {
			t.Errorf("%s: batch output/format mismatch (format %q, want %q)",
				res.Name, res.Format, wantFormat)
		}
	}

	// "all" expands in place, in the paper's order.
	status, body = post(`{"names": ["all"]}`)
	if status != http.StatusOK {
		t.Fatalf("batch all: status %d", status)
	}
	resp = batchResponse{}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(repro.ExperimentNames) {
		t.Fatalf("batch all: %d results, want %d", len(resp.Results), len(repro.ExperimentNames))
	}

	for _, bad := range []struct {
		body string
		want int
	}{
		{`{"names": []}`, http.StatusBadRequest},
		{`{"names": ["figure99"]}`, http.StatusNotFound},
		{`{"names": ["figure1"], "format": "xml"}`, http.StatusBadRequest},
		{`{"nmaes": ["figure1"]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		status, _ := post(bad.body)
		if status != bad.want {
			t.Errorf("batch %q: status %d, want %d", bad.body, status, bad.want)
		}
	}

	// Oversized bodies are rejected, not buffered.
	huge := `{"names": ["` + strings.Repeat("x", 2<<20) + `"]}`
	if status, _ := post(huge); status != http.StatusBadRequest {
		t.Errorf("oversized batch body: status %d, want 400", status)
	}
}

func TestAcceptHeaderNegotiation(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()
	wantCSV, err := repro.RunExperimentCSV("table1")
	if err != nil {
		t.Fatal(err)
	}
	_, ctype, body := get(t, ts, "/v1/experiments/table1", "text/csv")
	if !strings.HasPrefix(ctype, "text/csv") || body != wantCSV {
		t.Errorf("Accept: text/csv not honoured (content type %q)", ctype)
	}
	_, ctype, _ = get(t, ts, "/v1/experiments/table1", "application/json; q=0.9")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("Accept: application/json not honoured (content type %q)", ctype)
	}
	// Query parameter wins over the header.
	_, ctype, _ = get(t, ts, "/v1/experiments/table1?format=text", "application/json")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("format query should beat Accept header (content type %q)", ctype)
	}
}

func TestErrorResponses(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	status, ctype, body := get(t, ts, "/v1/experiments/figure99", "")
	if status != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", status)
	}
	if !strings.HasPrefix(ctype, "application/json") || !strings.Contains(body, "figure99") {
		t.Errorf("unknown experiment: want JSON error naming the input, got %q", body)
	}

	status, _, _ = get(t, ts, "/v1/experiments/figure1?format=xml", "")
	if status != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", status)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST on list: status %d, want 405", resp.StatusCode)
	}
}

func TestRooflineEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	want, err := repro.RooflineReport("SG2042", repro.F64)
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := get(t, ts, "/v1/roofline/SG2042", "")
	if status != http.StatusOK || body != want {
		t.Errorf("roofline: status %d, body match %v", status, body == want)
	}

	want32, err := repro.RooflineReport("SG2042", repro.F32)
	if err != nil {
		t.Fatal(err)
	}
	_, _, body = get(t, ts, "/v1/roofline/SG2042?prec=f32", "")
	if body != want32 {
		t.Error("roofline: prec=f32 not honoured")
	}

	status, _, _ = get(t, ts, "/v1/roofline/NotAMachine", "")
	if status != http.StatusNotFound {
		t.Errorf("unknown machine: status %d, want 404", status)
	}
	status, _, _ = get(t, ts, "/v1/roofline/SG2042?prec=f16", "")
	if status != http.StatusBadRequest {
		t.Errorf("bad precision: status %d, want 400", status)
	}
	status, _, _ = get(t, ts, "/v1/roofline/SG2042?format=xml", "")
	if status != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", status)
	}

	_, _, body = get(t, ts, "/v1/roofline/SG2042?format=json", "")
	var env reportJSON
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("roofline json: %v", err)
	}
	if env.Machine != "SG2042" || env.Report != "roofline" || env.Output != want {
		t.Error("roofline JSON envelope mismatch")
	}
}

func TestClusterEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	want, err := repro.ClusterScalingReport("SG2042", "ib", 512, repro.F64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := get(t, ts, "/v1/cluster/SG2042", "")
	if status != http.StatusOK || body != want {
		t.Errorf("cluster: status %d, body match %v", status, body == want)
	}

	wantEth, err := repro.ClusterScalingReport("SG2042", "eth", 256, repro.F32, []int{1, 2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, body = get(t, ts, "/v1/cluster/SG2042?net=eth&grid=256&prec=f32&nodes=1,2,4", "")
	if body != wantEth {
		t.Error("cluster: query parameters not honoured")
	}

	for path, want := range map[string]int{
		"/v1/cluster/NotAMachine":         http.StatusNotFound,
		"/v1/cluster/SG2042?net=carrier":  http.StatusBadRequest,
		"/v1/cluster/SG2042?grid=x":       http.StatusBadRequest,
		"/v1/cluster/SG2042?grid=-5":      http.StatusBadRequest,
		"/v1/cluster/SG2042?grid=0":       http.StatusBadRequest,
		"/v1/cluster/SG2042?grid=2097152": http.StatusBadRequest,
		"/v1/cluster/SG2042?nodes=1,-2":   http.StatusBadRequest,
		"/v1/cluster/SG2042?format=xml":   http.StatusBadRequest,
	} {
		status, _, _ := get(t, ts, path, "")
		if status != want {
			t.Errorf("%s: status %d, want %d", path, status, want)
		}
	}
}

// TestClusterEndpointSockets: ?sockets= derives multi-socket nodes and
// the 400-vs-404 split follows the typed UnknownMachineError — the bad
// label is the only 404; every socket-count failure is the client's
// 400, whether it dies in query parsing or in the derivation.
func TestClusterEndpointSockets(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	want, err := repro.ClusterScalingReport("SG2042", "ib", 256, repro.F64, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := get(t, ts, "/v1/cluster/SG2042?grid=256&nodes=1,2&sockets=2", "")
	if status != http.StatusOK || body != want {
		t.Errorf("sockets=2: status %d, body match %v", status, body == want)
	}
	if body == "" || !strings.Contains(body, "SG2042/s2") {
		t.Errorf("sockets=2 report does not name the derived machine:\n%s", body)
	}

	cases := []struct {
		name string
		path string
		want int
	}{
		{"unknown machine", "/v1/cluster/SG9999?sockets=2", http.StatusNotFound},
		{"unknown machine, no sockets", "/v1/cluster/SG9999", http.StatusNotFound},
		{"non-numeric sockets", "/v1/cluster/SG2042?sockets=two", http.StatusBadRequest},
		{"negative sockets", "/v1/cluster/SG2042?sockets=-1", http.StatusBadRequest},
		{"oversize sockets", "/v1/cluster/SG2042?sockets=1000000", http.StatusBadRequest},
		{"sockets on dual-socket preset", "/v1/cluster/SG2042x2?sockets=4096", http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, _, body := get(t, ts, tc.path, "")
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	get(t, ts, "/v1/experiments/table4", "")
	get(t, ts, "/v1/experiments/table4", "")
	get(t, ts, "/v1/experiments/figure99", "") // 404 → error counter
	get(t, ts, "/v1/experiments", "")

	status, ctype, body := get(t, ts, "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type %q", ctype)
	}
	for _, want := range []string{
		`sg2042d_requests_total{endpoint="experiment"} 3`,
		`sg2042d_request_errors_total{endpoint="experiment"} 1`,
		`sg2042d_requests_total{endpoint="list"} 1`,
		`sg2042d_request_seconds_total{endpoint="experiment"}`,
		"sg2042d_engine_cache_hits_total",
		"sg2042d_engine_cache_misses_total",
		"sg2042d_engine_cache_hit_rate",
		"# TYPE sg2042d_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 1}))
	defer ts.Close()
	status, _, body := get(t, ts, "/healthz", "")
	if status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: status %d body %q", status, body)
	}
}

// TestNegotiate covers the format table directly.
func TestNegotiate(t *testing.T) {
	for _, tc := range []struct {
		query, accept string
		want          format
	}{
		{"", "", formatText},
		{"format=text", "", formatText},
		{"format=txt", "", formatText},
		{"format=csv", "", formatCSV},
		{"format=json", "", formatJSON},
		{"format=CSV", "", formatCSV},
		{"", "text/csv", formatCSV},
		{"", "application/json", formatJSON},
		{"", "text/plain", formatText},
		{"", "text/html, application/json;q=0.8", formatJSON},
		{"", "*/*", formatText},
		{"format=json", "text/csv", formatJSON},
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1?"+tc.query, nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		got, err := negotiate(r)
		if err != nil {
			t.Errorf("query=%q accept=%q: %v", tc.query, tc.accept, err)
			continue
		}
		if got != tc.want {
			t.Errorf("query=%q accept=%q: format %d, want %d", tc.query, tc.accept, got, tc.want)
		}
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1?format=xml", nil)
	if _, err := negotiate(r); err == nil {
		t.Error("format=xml accepted")
	}
}
