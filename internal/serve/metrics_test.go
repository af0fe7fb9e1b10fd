package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMetricsRender(t *testing.T) {
	m := newMetrics()
	m.observe("experiment", 10*time.Millisecond, http.StatusOK)
	m.observe("experiment", 5*time.Millisecond, http.StatusNotFound)
	m.observe("batch", 20*time.Millisecond, http.StatusOK)

	out := m.render(30, 10, 4, 2, true, nil)
	for _, want := range []string{
		`sg2042d_requests_total{endpoint="batch"} 1`,
		`sg2042d_requests_total{endpoint="experiment"} 2`,
		`sg2042d_request_errors_total{endpoint="experiment"} 1`,
		`sg2042d_request_errors_total{endpoint="batch"} 0`,
		"sg2042d_engine_cache_hits_total 30",
		"sg2042d_engine_cache_misses_total 10",
		"sg2042d_engine_cache_hit_rate 0.750000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
	// Endpoint order is sorted, so repeated renders are stable.
	if out2 := m.render(30, 10, 4, 2, true, nil); out2 != out {
		t.Error("render is not deterministic")
	}
	// batch sorts before experiment.
	if strings.Index(out, `{endpoint="batch"}`) > strings.Index(out, `{endpoint="experiment"}`) {
		t.Error("endpoints not sorted")
	}
}

func TestMetricsZeroTraffic(t *testing.T) {
	m := newMetrics()
	out := m.render(0, 0, 0, 0, true, nil)
	if !strings.Contains(out, "sg2042d_engine_cache_hit_rate 0.000000") {
		t.Errorf("zero-traffic hit rate should render 0, got\n%s", out)
	}
}

func TestStatusWriterDefaultsToOK(t *testing.T) {
	m := newMetrics()
	h := m.instrument("probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi")) // implicit 200, no WriteHeader call
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/probe", nil))
	out := m.render(0, 0, 0, 0, true, nil)
	if !strings.Contains(out, `sg2042d_request_errors_total{endpoint="probe"} 0`) {
		t.Errorf("implicit 200 counted as error:\n%s", out)
	}
}

// metricValue reads one unlabelled counter from a /metrics body.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics lack %s", name)
	return 0
}

// A second clock variant of an already evaluated configuration reads
// its clock-independent half from the model's uncore memo: one hit and
// no miss on /metrics.
func TestMetricsCountUncoreHitForClockVariant(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 1}))
	defer ts.Close()
	spec := func(ghz string) string {
		return `{"machines": ["SG2044"], "axes": [{"axis": "clock", "values": [` + ghz + `]}],
			"threads": [11], "placements": ["block"], "precisions": ["f64"]}`
	}
	if status, _, body := postCampaign(t, ts, "", spec("1.1"), ""); status != http.StatusOK {
		t.Fatalf("campaign: status %d: %s", status, body)
	}
	_, _, before := get(t, ts, "/metrics", "")
	if status, _, body := postCampaign(t, ts, "", spec("1.3"), ""); status != http.StatusOK {
		t.Fatalf("campaign: status %d: %s", status, body)
	}
	_, _, after := get(t, ts, "/metrics", "")
	hits := metricValue(t, after, "sg2042d_model_uncore_hits_total") - metricValue(t, before, "sg2042d_model_uncore_hits_total")
	misses := metricValue(t, after, "sg2042d_model_uncore_misses_total") - metricValue(t, before, "sg2042d_model_uncore_misses_total")
	if hits != 1 || misses != 0 {
		t.Errorf("second clock variant: %d uncore hits and %d misses, want 1 and 0", hits, misses)
	}
}
