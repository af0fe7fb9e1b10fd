package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// TestBinaryNegotiation: every spelling that selects the wire format.
func TestBinaryNegotiation(t *testing.T) {
	for _, c := range []struct {
		query, accept string
	}{
		{"?format=binary", ""},
		{"?format=bin", ""},
		{"?format=wire", ""},
		{"", repro.WireContentType},
		{"", "application/octet-stream"},
		{"", "text/html, application/vnd.sg2042.wire;q=0.9"},
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1"+c.query, nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		f, err := negotiate(r)
		if err != nil || f != formatBinary {
			t.Errorf("query=%q accept=%q: format %v err %v, want binary", c.query, c.accept, f, err)
		}
	}
}

// TestExperimentBinaryEndpoint: the binary body decodes to the
// experiments' tables and is served under the wire media type.
func TestExperimentBinaryEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()
	status, ctype, body := get(t, ts, "/v1/experiments/figure1?format=binary", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ctype != repro.WireContentType {
		t.Errorf("content type %q, want %q", ctype, repro.WireContentType)
	}
	tables, err := repro.DecodeWire([]byte(body))
	if err != nil {
		t.Fatalf("binary body does not decode: %v", err)
	}
	if len(tables) != 1 || tables[0].Kind != "figure" {
		t.Fatalf("decoded %d tables, kind %q", len(tables), tables[0].Kind)
	}
	if tables[0].NumRows() == 0 {
		t.Error("figure table has no rows")
	}

	status, _, body = get(t, ts, "/v1/experiments/all?format=binary", "")
	if status != http.StatusOK {
		t.Fatalf("all: status %d", status)
	}
	tables, err = repro.DecodeWire([]byte(body))
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	if len(tables) != len(repro.ExperimentNames) {
		t.Errorf("all decoded %d frames, want %d", len(tables), len(repro.ExperimentNames))
	}
}

// TestBinaryDeterminism is the acceptance criterion for the wire leg of
// the determinism contract: serial, parallel, cached and prewarmed
// serving produce bit-identical binary bodies.
func TestBinaryDeterminism(t *testing.T) {
	serial, err := repro.NewEngine(repro.Options{Parallel: 1}).RunBinary("all")
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := repro.NewEngine(repro.Options{Parallel: 8}).RunBinary("all")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Error("serial and parallel binary bodies differ")
	}

	// Cached: the same HTTP request twice — miss then render-cache hit.
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()
	_, _, first := get(t, ts, "/v1/experiments/all?format=binary", "")
	_, _, second := get(t, ts, "/v1/experiments/all?format=binary", "")
	if first != second {
		t.Error("cached binary body differs from first render")
	}
	if first != string(serial) {
		t.Error("HTTP binary body differs from direct engine encoding")
	}

	// Prewarmed: the corpus is rendered before any request arrives.
	warm := New(Options{Parallel: 4, Prewarm: true})
	if _, err := warm.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	tsw := httptest.NewServer(warm)
	defer tsw.Close()
	_, _, prewarmed := get(t, tsw, "/v1/experiments/all?format=binary", "")
	if prewarmed != string(serial) {
		t.Error("prewarmed binary body differs from serial encoding")
	}
}

// TestReportAndSweepBinary: binary coverage for the non-experiment
// endpoints — the roofline report frame and a sweep figure frame.
func TestReportAndSweepBinary(t *testing.T) {
	ts := httptest.NewServer(New(Options{Parallel: 4}))
	defer ts.Close()

	status, ctype, body := get(t, ts, "/v1/roofline/SG2042?format=binary", "")
	if status != http.StatusOK || ctype != repro.WireContentType {
		t.Fatalf("roofline: status %d ctype %q", status, ctype)
	}
	tables, err := repro.DecodeWire([]byte(body))
	if err != nil || len(tables) != 1 || tables[0].Kind != "report" {
		t.Fatalf("roofline frame: tables %v err %v", len(tables), err)
	}
	// The report text travels verbatim in the output column and matches
	// the text rendering byte for byte.
	_, _, text := get(t, ts, "/v1/roofline/SG2042", "")
	if out := tables[0].Columns[2]; out.Name != "output" || out.Strings[0] != text {
		t.Error("binary report output column differs from the text body")
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep?format=binary",
		strings.NewReader(`{"machine": "SG2042", "axis": "cores", "values": [32, 64]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, buf.String())
	}
	tables, err = repro.DecodeWire(buf.Bytes())
	if err != nil || len(tables) != 1 || tables[0].Kind != "figure" {
		t.Fatalf("sweep frame: tables %v err %v", len(tables), err)
	}
}

// TestHealthzReadiness: the live-vs-ready split, table-driven over the
// prewarm states.
func TestHealthzReadiness(t *testing.T) {
	warmed := New(Options{Prewarm: true})
	if _, err := warmed.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		srv        *Server
		path       string
		wantStatus int
		wantBody   string
	}{
		{"no prewarm: ready immediately", New(Options{}), "/healthz", http.StatusOK, "ok\n"},
		{"no prewarm: live", New(Options{}), "/livez", http.StatusOK, "ok\n"},
		{"prewarm pending: not ready", New(Options{Prewarm: true}), "/healthz", http.StatusServiceUnavailable, "warming\n"},
		{"prewarm pending: still live", New(Options{Prewarm: true}), "/livez", http.StatusOK, "ok\n"},
		{"prewarm done: ready", warmed, "/healthz", http.StatusOK, "ok\n"},
		{"prewarm done: live", warmed, "/livez", http.StatusOK, "ok\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			c.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
			if rec.Code != c.wantStatus || rec.Body.String() != c.wantBody {
				t.Errorf("%s: status %d body %q, want %d %q",
					c.path, rec.Code, rec.Body.String(), c.wantStatus, c.wantBody)
			}
		})
	}
}

// TestPrewarmFillsCorpusAndMetrics: after Prewarm, every corpus entry
// has its ETag computed, a request for any corpus entry is a
// render-cache hit, and the prewarm metrics report the pass.
func TestPrewarmFillsCorpusAndMetrics(t *testing.T) {
	s := New(Options{Parallel: 4, Prewarm: true})
	n, err := s.Prewarm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(s.prewarmCorpus()) {
		t.Errorf("prewarmed %d of %d corpus entries", n, len(s.prewarmCorpus()))
	}
	if got := s.rc.Len(); got != n {
		t.Errorf("render cache holds %d entries after prewarming %d", got, n)
	}
	s.rc.Range(func(k renderKey, e *renderEntry) {
		if e.etag == "" {
			t.Errorf("prewarmed entry %+v has no ETag yet", k)
		}
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	hitsBefore, _ := s.rc.Stats()
	for _, path := range []string{
		"/v1/experiments/figure1?format=binary",
		"/v1/experiments/table3?format=csv",
		"/v1/roofline/SG2042?prec=f32&format=json",
		"/v1/cluster/SG2042",
	} {
		if status, _, body := get(t, ts, path, ""); status != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, status, body)
		}
	}
	if h, _ := s.rc.Stats(); h != hitsBefore+4 {
		t.Errorf("corpus requests after prewarm: %d hits, want %d (all hits)", h, hitsBefore+4)
	}
	status, _, body := get(t, ts, "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, want := range []string{
		"sg2042d_prewarm_ready 1",
		fmt.Sprintf("sg2042d_prewarm_entries_total %d", n),
		"sg2042d_prewarm_errors_total 0",
		"sg2042d_prewarm_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPrewarmCancelled: a cancelled context abandons the pass without
// marking the server ready.
func TestPrewarmCancelled(t *testing.T) {
	s := New(Options{Prewarm: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Prewarm(ctx); err == nil {
		t.Fatal("cancelled prewarm returned nil error")
	}
	if s.ready.Load() {
		t.Error("cancelled prewarm marked the server ready")
	}
}

// TestRenderCacheConcurrentStress is the make-race workload for the
// render cache: many goroutines over a key space bigger than
// the global cap, with error fills mixed in, must always observe the
// body their key's fill produces and keep the size bounded.
func TestRenderCacheConcurrentStress(t *testing.T) {
	c := newRenderCache()
	const workers = 16
	const keys = maxRenderEntries + 300
	const iters = 400
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (seed*31 + i*17) % keys
				k := renderKey{kind: "sweep", name: "stress", variant: fmt.Sprint(n), format: formatText}
				if n%13 == 0 {
					// Error fills must propagate and never stick.
					_, err := c.get(k, func() ([]byte, string, error) {
						return nil, "", fmt.Errorf("fill %d failed", n)
					})
					if err == nil {
						// Another goroutine's successful fill for the same
						// key may legitimately win the slot; that's fine.
						continue
					}
					continue
				}
				want := fmt.Sprintf("body-%d", n)
				ent, err := c.get(k, func() ([]byte, string, error) {
					return []byte(want), "text/plain", nil
				})
				if err != nil {
					errs <- err
					return
				}
				if string(entryBody(ent)) != want {
					errs <- fmt.Errorf("key %d served body %q", n, entryBody(ent))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.Len(); n > maxRenderEntries {
		t.Errorf("cache grew to %d entries past the %d cap", n, maxRenderEntries)
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("stress produced hits=%d misses=%d; expected both", hits, misses)
	}
}
