package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/par"
)

const campaignBody = `{
	"machines": ["SG2042", "SG2044"],
	"axes": [
		{"axis": "vector", "values": [128, 256]},
		{"axis": "numa", "values": [1, 4]}
	],
	"threads": [0, 8]
}`

// postCampaign issues a POST /v1/campaign and returns status, content
// type and body.
func postCampaign(t *testing.T, ts *httptest.Server, query, body, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaign"+query, strings.NewReader(body))
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
	out := new(strings.Builder)
	if _, err := io.Copy(out, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out.String()
}

// TestCampaignEndpointByteIdentical: the text and CSV bodies are the
// exact bytes the library renders (and therefore the exact bytes
// cmd/sg2042sim -campaign prints), on cold and warm caches alike.
func TestCampaignEndpointByteIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	spec, err := repro.CampaignSpecFromJSON([]byte(campaignBody), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.Options{Parallel: 4})
	wantText, err := eng.CampaignFormat(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := eng.CampaignFormat(spec, true)
	if err != nil {
		t.Fatal(err)
	}

	for run := 0; run < 2; run++ {
		status, ctype, body := postCampaign(t, ts, "", campaignBody, "")
		if status != http.StatusOK {
			t.Fatalf("run %d text: status %d: %s", run, status, body)
		}
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Errorf("run %d text: content type %q", run, ctype)
		}
		if body != wantText {
			t.Errorf("run %d: text body differs from library rendering", run)
		}
		status, ctype, body = postCampaign(t, ts, "?format=csv", campaignBody, "")
		if status != http.StatusOK {
			t.Fatalf("run %d csv: status %d", run, status)
		}
		if !strings.HasPrefix(ctype, "text/csv") {
			t.Errorf("run %d csv: content type %q", run, ctype)
		}
		if body != wantCSV {
			t.Errorf("run %d: CSV body differs from library rendering", run)
		}
	}

	// The JSON envelope wraps the same text rendering.
	status, _, body := postCampaign(t, ts, "", campaignBody, "application/json")
	if status != http.StatusOK {
		t.Fatalf("json: status %d", status)
	}
	var envelope struct {
		Title  string `json:"title"`
		Points int    `json:"points"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Output != wantText {
		t.Error("JSON envelope output differs from text rendering")
	}
	if envelope.Points != 16 {
		t.Errorf("JSON envelope points %d, want 16", envelope.Points)
	}
}

// TestCampaignErrorSplit pins the boundary: invalid specs are 400s,
// an unknown registry label is a 404, and an unknown format is a 400 —
// all before any evaluation.
func TestCampaignErrorSplit(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 2}))
	defer ts.Close()

	cases := []struct {
		name   string
		query  string
		body   string
		status int
	}{
		{"malformed JSON", "", `{`, http.StatusBadRequest},
		{"unknown field", "", `{"machines": ["SG2042"], "bogus": 1}`, http.StatusBadRequest},
		{"no machines", "", `{"axes": [{"axis": "cores", "values": [8]}]}`, http.StatusBadRequest},
		{"unknown axis", "", `{"machines": ["SG2042"], "axes": [{"axis": "dies", "values": [2]}]}`, http.StatusBadRequest},
		{"bad placement", "", `{"machines": ["SG2042"], "placements": ["scatter"]}`, http.StatusBadRequest},
		{"bad precision", "", `{"machines": ["SG2042"], "precisions": ["f16"]}`, http.StatusBadRequest},
		{"underivable grid", "", `{"machines": ["V2"], "axes": [{"axis": "vector", "values": [256]}]}`, http.StatusBadRequest},
		{"oversized grid", "", `{"machines": ["SG2042"], "axes": [{"axis": "clock", "values": [` +
			strings.TrimSuffix(strings.Repeat("1,", 8200), ",") + `]}]}`, http.StatusBadRequest},
		{"unknown machine", "", `{"machines": ["SG9999"]}`, http.StatusNotFound},
		{"unknown format", "?format=yaml", campaignBody, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, ctype, body := postCampaign(t, ts, tc.query, tc.body, "")
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, body)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("%s: error content type %q", tc.name, ctype)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not an error envelope", tc.name, body)
		}
	}
}

// TestCampaignNDJSONOrdering: the stream delivers one line per grid
// point, indices in grid order, then a terminal summary line — and the
// cached replay is byte-identical to the live stream.
func TestCampaignNDJSONOrdering(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 8}))
	defer ts.Close()

	status, ctype, live := postCampaign(t, ts, "?format=ndjson", campaignBody, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, live)
	}
	if !strings.HasPrefix(ctype, "application/x-ndjson") {
		t.Errorf("content type %q", ctype)
	}
	lines := strings.Split(strings.TrimRight(live, "\n"), "\n")
	if len(lines) != 16+1 {
		t.Fatalf("%d lines, want 16 points + 1 summary", len(lines))
	}
	for i, line := range lines[:16] {
		var p struct {
			Point   int    `json:"point"`
			Machine string `json:"machine"`
			Classes []struct {
				Class string  `json:"class"`
				Ratio float64 `json:"ratio_vs_base"`
			} `json:"classes"`
		}
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if p.Point != i {
			t.Errorf("line %d carries point %d — stream not in grid order", i, p.Point)
		}
		if p.Machine == "" || len(p.Classes) == 0 {
			t.Errorf("line %d incomplete: %s", i, line)
		}
	}
	var summary struct {
		Summary struct {
			Points int   `json:"points"`
			Ranked []int `json:"ranked"`
			Pareto []int `json:"pareto"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[16]), &summary); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if summary.Summary.Points != 16 || len(summary.Summary.Ranked) != 16 || len(summary.Summary.Pareto) == 0 {
		t.Errorf("summary incomplete: %s", lines[16])
	}

	// Accept-header negotiation reaches the same stream, served from
	// the render cache, byte-identical.
	status, _, cached := postCampaign(t, ts, "", campaignBody, "application/x-ndjson")
	if status != http.StatusOK {
		t.Fatalf("cached replay: status %d", status)
	}
	if cached != live {
		t.Error("cached NDJSON replay differs from the live stream")
	}
}

// TestCampaignMetrics: the endpoint shows up in /metrics with the
// campaign point and stream counters.
func TestCampaignMetrics(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	small := `{"machines": ["SG2042"], "axes": [{"axis": "cores", "values": [8, 16]}]}`
	if status, _, body := postCampaign(t, ts, "", small, ""); status != http.StatusOK {
		t.Fatalf("campaign: status %d: %s", status, body)
	}
	if status, _, body := postCampaign(t, ts, "?format=ndjson", small, ""); status != http.StatusOK {
		t.Fatalf("campaign ndjson: status %d: %s", status, body)
	}
	_, _, metrics := get(t, ts, "/metrics", "")
	for _, want := range []string{
		`sg2042d_requests_total{endpoint="campaign"} 2`,
		"sg2042d_campaign_points_total 4",
		"sg2042d_campaign_streams_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCampaignCachedHitAllocs is the serving-path guard: once a grid's
// text rendering is cached, answering it again must not re-evaluate or
// re-render anything — the whole request stays within a fixed small
// allocation budget.
func TestCampaignCachedHitAllocs(t *testing.T) {
	srv := New(Options{Parallel: 2})
	small := `{"machines": ["SG2042"], "axes": [{"axis": "cores", "values": [8, 16]}]}`

	warm := httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(small))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		t.Fatalf("warming request: status %d: %s", rec.Code, rec.Body)
	}
	want := rec.Body.String()

	avg := testing.AllocsPerRun(50, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(small))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatal("cached hit served a different response")
		}
	})
	// A cold render of this grid costs tens of thousands of allocations
	// (suite evaluations, rendering); a cached hit is request plumbing
	// plus the spec decode. The bound is deliberately loose — it fails
	// only if the hit path regresses to re-rendering.
	if avg > 400 {
		t.Errorf("cached campaign hit allocates %.0f per request, want <= 400", avg)
	}
}

// collidingCampaignBody is a grid that collides on purpose: the
// duplicated clock value yields two combos sharing one derived machine,
// and threads 0 and 64 both resolve to full occupancy on the 64-core
// SG2042 — four grid points, one unique evaluation.
const collidingCampaignBody = `{
  "machines": ["SG2042"],
  "axes": [{"axis": "clock", "values": [2.0, 2.0]}],
  "threads": [0, 64]
}`

// TestCampaignNDJSONDedupIdenticalLines: over HTTP, colliding grid
// points stream as identical NDJSON lines except for their grid index —
// sharing one suite-cache entry never shows in the bytes.
func TestCampaignNDJSONDedupIdenticalLines(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()
	status, _, body := postCampaign(t, ts, "?format=ndjson", collidingCampaignBody, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("stream has %d lines, want 4 points + summary", len(lines))
	}
	normalize := func(line string, i int) string {
		prefix := fmt.Sprintf(`{"point":%d,`, i)
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("line %d lacks its index prefix: %s", i, line)
		}
		return strings.TrimPrefix(line, prefix)
	}
	want := normalize(lines[0], 0)
	for i := 1; i < 4; i++ {
		if got := normalize(lines[i], i); got != want {
			t.Errorf("colliding point %d line differs:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestDistributedCampaignDedupByteIdentical: a colliding grid sharded
// over a two-worker fleet — including a degraded fleet that lost a
// worker — serves byte-for-byte what a single local server serves, in
// both the text and streaming forms.
func TestDistributedCampaignDedupByteIdentical(t *testing.T) {
	local := httptest.NewServer(New(Options{Parallel: 4}).Handler())
	defer local.Close()
	coord, workers := newFleet(t, 2)
	for _, query := range []string{"", "?format=ndjson"} {
		wantStatus, _, want := postCampaign(t, local, query, collidingCampaignBody, "")
		if wantStatus != http.StatusOK {
			t.Fatalf("query %q: local status %d: %s", query, wantStatus, want)
		}
		status, _, got := postCampaign(t, coord, query, collidingCampaignBody, "")
		if status != http.StatusOK {
			t.Fatalf("query %q: coordinator status %d: %s", query, status, got)
		}
		if got != want {
			t.Errorf("query %q: distributed colliding-grid body differs from local", query)
		}
	}
	// Degrade the fleet and re-ask through a fresh coordinator (the
	// first one has the renderings cached): still byte-identical.
	workers[0].CloseClientConnections()
	workers[0].Close()
	coord2 := httptest.NewServer(New(Options{Coordinate: []string{workers[0].URL, workers[1].URL}}).Handler())
	defer coord2.Close()
	_, _, want := postCampaign(t, local, "", collidingCampaignBody, "")
	status, _, got := postCampaign(t, coord2, "", collidingCampaignBody, "")
	if status != http.StatusOK {
		t.Fatalf("degraded fleet: status %d: %s", status, got)
	}
	if got != want {
		t.Error("degraded-fleet colliding-grid body differs from local")
	}
}

// TestCampaignPanicIsInternalError: an evaluation panic reaches the
// client as a fixed "internal error" 500 — the panic value stays out of
// the body — while the value and stack go to the log and the panic
// counts in sg2042d_panics_total.
func TestCampaignPanicIsInternalError(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if body := getMetricsBody(t, ts); !strings.Contains(body, "sg2042d_panics_total 0") {
		t.Errorf("metrics lack the panic counter at zero:\n%s", grepMetrics(body, "panics"))
	}

	const value = "suite cache row 7 out of order"
	err := fmt.Errorf("core: evaluating unit 3: %w", &par.PanicError{Value: value, Stack: []byte("goroutine 9 [running]:")})
	rec := httptest.NewRecorder()
	s.writeCampaignError(rec, err)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, value) || !strings.Contains(body, "internal error") {
		t.Errorf("body %q: want a fixed internal error without the panic value", body)
	}
	if !strings.Contains(logged.String(), value) || !strings.Contains(logged.String(), "goroutine 9 [running]:") {
		t.Errorf("log %q lacks the panic value and stack", logged.String())
	}
	if body := getMetricsBody(t, ts); !strings.Contains(body, "sg2042d_panics_total 1") {
		t.Errorf("metrics lack the counted panic:\n%s", grepMetrics(body, "panics"))
	}
}

// TestCampaignHugeNUMARegionsRejected: an inline machine claiming 2^40
// NUMA regions is a 400 naming the count, and rejecting it allocates
// nothing in proportion to that number: validation's seen-set is
// bounded by the machine's cores.
func TestCampaignHugeNUMARegionsRejected(t *testing.T) {
	s := New(Options{})
	body := `{"specs": [` + inlineSpec(t, repro.SG2042(), "numa_regions", int64(1)<<40) + `],
		"axes": [{"axis": "clock", "values": [1.5, 2.5]}]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "only 4 of 1099511627776 NUMA regions populated") {
		t.Errorf("body %q does not name the region count", w.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the spec allocated %d B", grew)
	}
}
