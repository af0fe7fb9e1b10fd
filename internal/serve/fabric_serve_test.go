package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newFleet starts n worker servers (each a full Server with the fabric
// shard endpoint mounted) and a coordinator server fronting them, and
// returns the coordinator plus the workers for fault injection.
func newFleet(t *testing.T, n int) (coord *httptest.Server, workers []*httptest.Server) {
	t.Helper()
	var targets []string
	for i := 0; i < n; i++ {
		w := httptest.NewServer(New(Options{Parallel: 2, Worker: true}).Handler())
		t.Cleanup(w.Close)
		workers = append(workers, w)
		targets = append(targets, w.URL)
	}
	coord = httptest.NewServer(New(Options{Coordinate: targets}).Handler())
	t.Cleanup(coord.Close)
	return coord, workers
}

// TestDistributedCampaignByteIdentical: every negotiated form of
// POST /v1/campaign — text, CSV, NDJSON stream, binary wire — served by
// a coordinator sharding over two worker daemons is byte-for-byte the
// body a single local server produces. This is the serving-tier face of
// the distributed determinism contract.
func TestDistributedCampaignByteIdentical(t *testing.T) {
	local := httptest.NewServer(New(Options{Parallel: 4}).Handler())
	defer local.Close()
	coord, _ := newFleet(t, 2)

	forms := []struct {
		name   string
		query  string
		accept string
	}{
		{"text", "", ""},
		{"csv", "?format=csv", ""},
		{"ndjson", "?format=ndjson", ""},
		{"binary", "", wireContentType},
	}
	for _, f := range forms {
		wantStatus, wantType, want := postCampaign(t, local, f.query, campaignBody, f.accept)
		if wantStatus != http.StatusOK {
			t.Fatalf("%s: local status %d: %s", f.name, wantStatus, want)
		}
		status, ctype, got := postCampaign(t, coord, f.query, campaignBody, f.accept)
		if status != http.StatusOK {
			t.Fatalf("%s: coordinator status %d: %s", f.name, status, got)
		}
		if ctype != wantType {
			t.Errorf("%s: content type %q, want %q", f.name, ctype, wantType)
		}
		if got != want {
			t.Errorf("%s: distributed body differs from single-process body", f.name)
		}
	}
}

// TestDistributedCampaignSurvivesWorkerLoss: killing one of two workers
// before the campaign starts must not change a single byte — the
// survivor absorbs the orphaned shard.
func TestDistributedCampaignSurvivesWorkerLoss(t *testing.T) {
	local := httptest.NewServer(New(Options{Parallel: 4}).Handler())
	defer local.Close()
	coord, workers := newFleet(t, 2)
	workers[0].CloseClientConnections()
	workers[0].Close()

	_, _, want := postCampaign(t, local, "", campaignBody, "")
	status, _, got := postCampaign(t, coord, "", campaignBody, "")
	if status != http.StatusOK {
		t.Fatalf("status %d with one live worker: %s", status, got)
	}
	if got != want {
		t.Error("body differs after worker loss")
	}
}

// TestDistributedCampaignAllWorkersDown: a fleet with no live workers
// answers 502 — including on the NDJSON path, where the failure happens
// before any line has streamed.
func TestDistributedCampaignAllWorkersDown(t *testing.T) {
	coord, workers := newFleet(t, 2)
	for _, w := range workers {
		w.CloseClientConnections()
		w.Close()
	}
	for _, query := range []string{"", "?format=ndjson"} {
		status, ctype, body := postCampaign(t, coord, query, campaignBody, "")
		if status != http.StatusBadGateway {
			t.Errorf("query %q: status %d, want 502: %s", query, status, body)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("query %q: error content type %q", query, ctype)
		}
		if !strings.Contains(body, "error") {
			t.Errorf("query %q: body lacks error envelope: %s", query, body)
		}
	}
}

// TestDistributedCampaignSpecErrorsStayClientErrors: the coordinator
// tier keeps the 400/404 split — spec errors are decided before any
// worker is contacted.
func TestDistributedCampaignSpecErrorsStayClientErrors(t *testing.T) {
	coord, _ := newFleet(t, 2)
	if status, _, body := postCampaign(t, coord, "", `{"machines": ["NoSuch"]}`, ""); status != http.StatusNotFound {
		t.Errorf("unknown machine: status %d, want 404: %s", status, body)
	}
	if status, _, body := postCampaign(t, coord, "", `{nope`, ""); status != http.StatusBadRequest {
		t.Errorf("malformed spec: status %d, want 400: %s", status, body)
	}
}

// TestWorkerEndpointMountGated: the fabric shard endpoint exists only
// under Options.Worker; an ordinary server answers 404 there.
func TestWorkerEndpointMountGated(t *testing.T) {
	plain := httptest.NewServer(New(Options{}).Handler())
	defer plain.Close()
	resp, err := http.Post(plain.URL+"/v1/fabric/points", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("plain server: fabric endpoint status %d, want 404", resp.StatusCode)
	}

	worker := httptest.NewServer(New(Options{Worker: true}).Handler())
	defer worker.Close()
	resp, err = http.Get(worker.URL + "/v1/fabric/points")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("worker GET: status %d, want 405", resp.StatusCode)
	}
}

// TestFleetDownRetryAfterAndMetric: the fleet-down 502 carries a
// Retry-After hint (the prober revives workers, so the condition is
// expected to clear) and increments its dedicated counter, visible in
// /metrics.
func TestFleetDownRetryAfterAndMetric(t *testing.T) {
	coord, workers := newFleet(t, 2)
	for _, w := range workers {
		w.CloseClientConnections()
		w.Close()
	}
	resp, err := http.Post(coord.URL+"/v1/campaign", "application/json", strings.NewReader(campaignBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want \"5\"", got)
	}
	body := getMetricsBody(t, coord)
	if !strings.Contains(body, "sg2042d_fabric_fleet_down_total 1") {
		t.Errorf("metrics lack the fleet-down counter:\n%s", grepMetrics(body, "fleet_down"))
	}
}

// TestCoordinatorMetricsExposeFleet: a coordinating server's /metrics
// reports per-worker up/quarantined gauges and the self-healing
// counters; a plain server omits the per-worker block but still exports
// the fleet-down counter at zero.
func TestCoordinatorMetricsExposeFleet(t *testing.T) {
	coord, workers := newFleet(t, 2)
	body := getMetricsBody(t, coord)
	for _, w := range workers {
		gauge := `sg2042d_fabric_worker_up{target="` + w.URL + `"} 1`
		if !strings.Contains(body, gauge) {
			t.Errorf("metrics lack %s:\n%s", gauge, grepMetrics(body, "worker_up"))
		}
	}
	for _, counter := range []string{
		"sg2042d_fabric_probe_deaths_total 0",
		"sg2042d_fabric_probe_revivals_total 0",
		"sg2042d_fabric_warm_joins_total 0",
		"sg2042d_fabric_quarantines_total 0",
	} {
		if !strings.Contains(body, counter) {
			t.Errorf("metrics lack %q", counter)
		}
	}

	plain := httptest.NewServer(New(Options{}).Handler())
	defer plain.Close()
	body = getMetricsBody(t, plain)
	if strings.Contains(body, "sg2042d_fabric_worker_up") {
		t.Error("non-coordinating server exports per-worker gauges")
	}
	if !strings.Contains(body, "sg2042d_fabric_fleet_down_total 0") {
		t.Error("non-coordinating server omits the fleet-down counter")
	}
}

// TestWorkerFabricSurfaceMounted: Options.Worker mounts the whole
// self-healing surface — healthz for the prober, snapshot and warm for
// peer shipping — and a plain server mounts none of it.
func TestWorkerFabricSurfaceMounted(t *testing.T) {
	worker := httptest.NewServer(New(Options{Worker: true}).Handler())
	defer worker.Close()
	plain := httptest.NewServer(New(Options{}).Handler())
	defer plain.Close()

	resp, err := http.Get(worker.URL + "/v1/fabric/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("worker fabric healthz: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(worker.URL + "/v1/fabric/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("worker fabric snapshot: status %d, want 200", resp.StatusCode)
	}
	for _, path := range []string{"/v1/fabric/healthz", "/v1/fabric/snapshot"} {
		resp, err := http.Get(plain.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("plain server %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// getMetricsBody fetches /metrics.
func getMetricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// grepMetrics filters a metrics body to lines containing substr, for
// focused failure output.
func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
