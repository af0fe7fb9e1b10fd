package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// The HTTP byte manifest: every response the servable corpus produces,
// pinned by status, Content-Type, ETag, body length and SHA-256 in
// testdata/http_manifest.txt. It is the HTTP leg of the digest corpus:
// a change to a renderer, a format table or a cache key that moves one
// byte of one response shows up here as a one-line diff. After a
// deliberate change, regenerate it with
//
//	go test -run TestHTTPByteManifest ./internal/serve -update
//
// and say in the change why the lines moved.

var updateManifest = flag.Bool("update", false, "rewrite testdata/http_manifest.txt from the current responses")

const manifestPath = "testdata/http_manifest.txt"

// manifestRequest is one pinned request; body names the POST body in
// the manifest line (the bytes themselves come from manifestBodies).
type manifestRequest struct {
	method, path, body string
}

// prewarmGETs lists, independently of prewarmCorpus, every GET the
// prewarm pass promises to have rendered: each experiment and "all" in
// four formats, each paper preset's roofline at both precisions and
// each registry machine's cluster report, in three formats each.
func prewarmGETs() []manifestRequest {
	var reqs []manifestRequest
	add := func(path string) { reqs = append(reqs, manifestRequest{method: http.MethodGet, path: path}) }
	for _, name := range append(append([]string(nil), repro.ExperimentNames...), "all") {
		for _, f := range []string{"text", "csv", "json", "binary"} {
			add("/v1/experiments/" + name + "?format=" + f)
		}
	}
	for _, label := range repro.DefaultMachineRegistry().Labels() {
		if repro.MachineByLabel(label) != nil {
			for _, p := range []string{"f64", "f32"} {
				for _, f := range []string{"text", "json", "binary"} {
					add("/v1/roofline/" + label + "?prec=" + p + "&format=" + f)
				}
			}
		}
		for _, f := range []string{"text", "json", "binary"} {
			add("/v1/cluster/" + label + "?format=" + f)
		}
	}
	return reqs
}

// manifestBodies holds the POST bodies the manifest names.
func manifestBodies(t *testing.T) map[string]string {
	t.Helper()
	spec, err := os.ReadFile("../../examples/campaign/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	inline, err := repro.MachineJSON(repro.VisionFiveV2())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"batch-text":    `{"names": ["figure1", "table4", "figure3"]}`,
		"batch-csv":     `{"names": ["all"], "format": "csv"}`,
		"sweep-label":   `{"machine": "SG2042", "axis": "cores", "values": [8, 16, 32, 64]}`,
		"sweep-inline":  `{"spec": ` + string(inline) + `, "axis": "clock", "values": [1.0, 1.5], "prec": "f32"}`,
		"campaign-spec": string(spec),
	}
}

// postRequests lists the pinned POSTs: the batch endpoint in both of
// its forms, two sweeps in four formats and the example campaign in
// all five.
func postRequests() []manifestRequest {
	reqs := []manifestRequest{
		{http.MethodPost, "/v1/experiments:batch", "batch-text"},
		{http.MethodPost, "/v1/experiments:batch", "batch-csv"},
	}
	for _, body := range []string{"sweep-label", "sweep-inline"} {
		for _, f := range []string{"text", "csv", "json", "binary"} {
			reqs = append(reqs, manifestRequest{http.MethodPost, "/v1/sweep?format=" + f, body})
		}
	}
	for _, f := range []string{"text", "csv", "json", "binary", "ndjson"} {
		reqs = append(reqs, manifestRequest{http.MethodPost, "/v1/campaign?format=" + f, "campaign-spec"})
	}
	return reqs
}

// manifestLine serves one request and formats its manifest line:
// method, path, body name, status, Content-Type, ETag, length, SHA-256,
// tab-separated ("-" for an empty field).
func manifestLine(s *Server, req manifestRequest, bodies map[string]string) string {
	var r *http.Request
	if req.body == "" {
		r = httptest.NewRequest(req.method, req.path, nil)
	} else {
		r = httptest.NewRequest(req.method, req.path, strings.NewReader(bodies[req.body]))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	sum := sha256.Sum256(w.Body.Bytes())
	orDash := func(v string) string {
		if v == "" {
			return "-"
		}
		return v
	}
	return strings.Join([]string{
		req.method, req.path, orDash(req.body),
		strconv.Itoa(w.Code), orDash(w.Header().Get("Content-Type")), orDash(w.Header().Get("ETag")),
		strconv.Itoa(w.Body.Len()), hex.EncodeToString(sum[:]),
	}, "\t")
}

// TestHTTPByteManifest walks the corpus on a prewarmed server and holds
// every response to its manifest line. The GET walk must be served
// entirely from the prewarmed render cache — zero misses — so the keys
// prewarm fills cannot drift from the ones the handlers look up.
func TestHTTPByteManifest(t *testing.T) {
	s := New(Options{Parallel: 2, Prewarm: true})
	if _, err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	bodies := manifestBodies(t)
	var got []string
	_, missesBefore := s.rc.Stats()
	for _, req := range prewarmGETs() {
		got = append(got, manifestLine(s, req, bodies))
	}
	if _, misses := s.rc.Stats(); misses != missesBefore {
		t.Errorf("walking the prewarmed GET corpus missed the render cache %d times, want 0", misses-missesBefore)
	}
	for _, req := range postRequests() {
		got = append(got, manifestLine(s, req, bodies))
	}
	gotText := strings.Join(got, "\n") + "\n"

	if *updateManifest {
		if err := os.WriteFile(manifestPath, []byte(gotText), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Errorf("manifest has %d lines, the corpus %d", len(wantLines), len(got))
	}
	for i := 0; i < min(len(wantLines), len(got)); i++ {
		if wantLines[i] != got[i] {
			t.Errorf("line %d moved:\n want %s\n  got %s", i+1, wantLines[i], got[i])
		}
	}
	for _, line := range got {
		if f := strings.Split(line, "\t"); f[3] != strconv.Itoa(http.StatusOK) {
			t.Errorf("non-200 response in the corpus: %s", line)
		}
	}
}
