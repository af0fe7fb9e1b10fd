package serve

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/fabric"
)

// The HTTP byte manifest is the repository's one byte pin: every
// response the servable corpus produces, pinned by status,
// Content-Type, ETag, body length and SHA-256 in
// testdata/http_manifest.txt. It covers the experiments, reports,
// sweeps (one per axis), both example campaigns, a campaign whose grid
// points collide, the suite-cache snapshot the prewarm pass leaves, and
// gzip representations. A change
// to a renderer, a format table, a cache key, the wire frames, the
// snapshot layout, the model or the presets that moves one byte of one
// response shows up here as a one-line diff. After a deliberate change,
// regenerate it with
//
//	go test -run TestHTTPByteManifest ./internal/serve -update
//
// and say in the change why the lines moved.

var updateManifest = flag.Bool("update", false, "rewrite testdata/http_manifest.txt from the current responses")

const manifestPath = "testdata/http_manifest.txt"

// manifestRequest is one pinned request; body names the POST body in
// the manifest line (the bytes themselves come from manifestBodies).
// A gzip request sends Accept-Encoding: gzip; its line pins the
// decompressed body and gains a ninth column, the Content-Encoding
// answered ("-" when the body went out as is). Compressed bytes are
// never pinned: compress/flate output may change across Go versions.
type manifestRequest struct {
	method, path, body string
	gzip               bool
}

var manifestFormats = []string{"text", "csv", "json", "binary"}

// prewarmGETs lists, independently of prewarmCorpus, every GET the
// prewarm pass promises to have rendered: each experiment and "all" in
// four formats, and each registry machine's roofline at both
// precisions and cluster report, in three formats each.
func prewarmGETs() []manifestRequest {
	var reqs []manifestRequest
	add := func(path string) { reqs = append(reqs, manifestRequest{method: http.MethodGet, path: path}) }
	for _, name := range append(append([]string(nil), repro.ExperimentNames...), "all") {
		for _, f := range manifestFormats {
			add("/v1/experiments/" + name + "?format=" + f)
		}
	}
	for _, label := range repro.DefaultMachineRegistry().Labels() {
		for _, p := range []string{"f64", "f32"} {
			for _, f := range []string{"text", "json", "binary"} {
				add("/v1/roofline/" + label + "?prec=" + p + "&format=" + f)
			}
		}
		for _, f := range []string{"text", "json", "binary"} {
			add("/v1/cluster/" + label + "?format=" + f)
		}
	}
	return reqs
}

// gzipGETs lists the prewarmed GETs requested gzipped: "all" in every
// format, one roofline, one cluster report, and Table 4's text, which
// is under gzipMinSize and so answers uncompressed.
func gzipGETs() []manifestRequest {
	var reqs []manifestRequest
	add := func(path string) {
		reqs = append(reqs, manifestRequest{method: http.MethodGet, path: path, gzip: true})
	}
	for _, f := range manifestFormats {
		add("/v1/experiments/all?format=" + f)
	}
	add("/v1/roofline/SG2042?prec=f64&format=text")
	add("/v1/cluster/SG2042?format=json")
	add("/v1/experiments/table4?format=text")
	return reqs
}

// manifestBodies holds the POST bodies the manifest names. The sweeps
// cover every axis: a duplicate clock value, a widened vector unit at
// one thread, NUMA regions under cyclic placement, sockets, cluster
// nodes, and an x86 base run at more threads than it has cores. The
// colliding campaign repeats a core count, has threads that clamp alike
// on the 4- and 16-core variants but not on the 64-core base, and
// repeats a placement and a precision.
func manifestBodies(t *testing.T) map[string]string {
	t.Helper()
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
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
		"sweep-clock":   `{"machine": "SG2042", "axis": "clock", "values": [1.5, 2.0, 2.0, 2.6], "threads": 16}`,
		"sweep-vector":  `{"machine": "SG2042", "axis": "vector", "values": [128, 256, 512], "threads": 1, "prec": "f32"}`,
		"sweep-numa":    `{"machine": "SG2042", "axis": "numa", "values": [1, 2, 4], "placement": "cyclic"}`,
		"sweep-sockets": `{"machine": "SG2042", "axis": "sockets", "values": [1, 2, 4]}`,
		"sweep-nodes":   `{"machine": "SG2042", "axis": "nodes", "values": [1, 2, 4], "threads": 32, "placement": "cluster", "prec": "f32"}`,
		"sweep-rome":    `{"machine": "Rome", "axis": "clock", "values": [2.25, 3.0], "threads": 96}`,
		"campaign-spec": read("../../examples/campaign/spec.json"),
		"scaling-spec":  read("../../examples/scaling/campaign.json"),
		"colliding-spec": `{"machines": ["SG2042"], "axes": [{"axis": "cores", "values": [4, 16, 4]}], ` +
			`"threads": [0, 4, 16, 64], "placements": ["block", "cyclic", "block"], "precisions": ["f64", "f32", "f64"]}`,
	}
}

// campaignRequests lists one campaign body in all five formats.
func campaignRequests(body string) []manifestRequest {
	var reqs []manifestRequest
	for _, f := range append(append([]string(nil), manifestFormats...), "ndjson") {
		reqs = append(reqs, manifestRequest{method: http.MethodPost, path: "/v1/campaign?format=" + f, body: body})
	}
	return reqs
}

// postRequests lists the pinned POSTs: the batch endpoint in both of
// its forms, every sweep in four formats, both example campaigns in
// all five, and the example campaign's cached formats gzipped.
func postRequests() []manifestRequest {
	reqs := []manifestRequest{
		{method: http.MethodPost, path: "/v1/experiments:batch", body: "batch-text"},
		{method: http.MethodPost, path: "/v1/experiments:batch", body: "batch-csv"},
	}
	sweep := func(bodies ...string) {
		for _, body := range bodies {
			for _, f := range manifestFormats {
				reqs = append(reqs, manifestRequest{method: http.MethodPost, path: "/v1/sweep?format=" + f, body: body})
			}
		}
	}
	sweep("sweep-label", "sweep-inline")
	reqs = append(reqs, campaignRequests("campaign-spec")...)
	sweep("sweep-clock", "sweep-vector", "sweep-numa", "sweep-sockets", "sweep-nodes", "sweep-rome")
	reqs = append(reqs, campaignRequests("scaling-spec")...)
	for _, f := range manifestFormats {
		reqs = append(reqs, manifestRequest{method: http.MethodPost, path: "/v1/campaign?format=" + f, body: "campaign-spec", gzip: true})
	}
	return reqs
}

// manifestLine serves one request and formats its manifest line:
// method, path, body name, status, Content-Type, ETag, length, SHA-256,
// tab-separated ("-" for an empty field), plus the Content-Encoding on
// gzip requests.
func manifestLine(t *testing.T, s *Server, req manifestRequest, bodies map[string]string) string {
	t.Helper()
	var r *http.Request
	if req.body == "" {
		r = httptest.NewRequest(req.method, req.path, nil)
	} else {
		r = httptest.NewRequest(req.method, req.path, strings.NewReader(bodies[req.body]))
	}
	if req.gzip {
		r.Header.Set("Accept-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	body := w.Body.Bytes()
	enc := w.Header().Get("Content-Encoding")
	if enc == "gzip" {
		zr, err := gzip.NewReader(w.Body)
		if err == nil {
			body, err = io.ReadAll(zr)
		}
		if err != nil {
			t.Fatalf("%s %s: gunzip: %v", req.method, req.path, err)
		}
	}
	sum := sha256.Sum256(body)
	orDash := func(v string) string {
		if v == "" {
			return "-"
		}
		return v
	}
	fields := []string{
		req.method, req.path, orDash(req.body),
		strconv.Itoa(w.Code), orDash(w.Header().Get("Content-Type")), orDash(w.Header().Get("ETag")),
		strconv.Itoa(len(body)), hex.EncodeToString(sum[:]),
	}
	if req.gzip {
		fields = append(fields, orDash(enc))
	}
	return strings.Join(fields, "\t")
}

// machineGETs lists the registry listing, every machine's spec by its
// canonical label, and one spec by a lower-case spelling of its label.
func machineGETs() []manifestRequest {
	reqs := []manifestRequest{{method: http.MethodGet, path: "/v1/machines"}}
	for _, label := range append(repro.DefaultMachineRegistry().Labels(), "sg2042") {
		reqs = append(reqs, manifestRequest{method: http.MethodGet, path: "/v1/machines/" + label})
	}
	return reqs
}

// walkManifest prewarms s and serves the corpus in manifest order: the
// GETs (which must all hit the render cache), the suite-cache snapshot
// at exactly the prewarm corpus, the POSTs, the machine registry, then
// the colliding campaign.
func walkManifest(t *testing.T, s *Server, bodies map[string]string) []string {
	t.Helper()
	if _, err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	var lines []string
	serve := func(reqs ...manifestRequest) {
		for _, req := range reqs {
			lines = append(lines, manifestLine(t, s, req, bodies))
		}
	}
	_, missesBefore := s.rc.Stats()
	serve(prewarmGETs()...)
	serve(gzipGETs()...)
	if _, misses := s.rc.Stats(); misses != missesBefore {
		t.Errorf("walking the prewarmed GET corpus missed the render cache %d times, want 0", misses-missesBefore)
	}
	serve(manifestRequest{method: http.MethodGet, path: fabric.SnapshotPath})
	serve(postRequests()...)
	serve(machineGETs()...)
	serve(campaignRequests("colliding-spec")...)
	return lines
}

// pinnedManifest returns the committed manifest's lines, and the same
// lines keyed by the request each pins.
func pinnedManifest(t *testing.T) ([]string, map[manifestRequest]string) {
	t.Helper()
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	byReq := map[manifestRequest]string{}
	for _, line := range lines {
		byReq[requestOf(line)] = line
	}
	return lines, byReq
}

// requestOf reads back the request a manifest line pins.
func requestOf(line string) manifestRequest {
	f := strings.Split(line, "\t")
	return manifestRequest{method: f[0], path: f[1], body: strings.TrimPrefix(f[2], "-"), gzip: len(f) == 9}
}

// TestHTTPByteManifest walks the corpus on a serial and on a parallel
// prewarmed server and holds every response of both to its manifest
// line. Each GET walk must be served entirely from the prewarmed render
// cache — zero misses — so the keys prewarm fills cannot drift from
// the ones the handlers look up. Both example campaigns and the
// colliding one, coordinated over three worker daemons at one and at
// two replicas, must then reproduce their pinned lines exactly, in
// every format.
func TestHTTPByteManifest(t *testing.T) {
	bodies := manifestBodies(t)
	for _, parallel := range []int{1, 8} {
		got := walkManifest(t, New(Options{Parallel: parallel, Prewarm: true, Worker: true}), bodies)
		if *updateManifest && parallel == 1 {
			if err := os.WriteFile(manifestPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := pinnedManifest(t)
		for i := 0; i < min(len(want), len(got)); i++ {
			if want[i] != got[i] {
				t.Errorf("Parallel %d: line %d moved:\n want %s\n  got %s", parallel, i+1, want[i], got[i])
			}
		}
		if len(want) != len(got) {
			t.Errorf("manifest has %d lines, the Parallel %d corpus %d", len(want), parallel, len(got))
		}
	}
	want, pinned := pinnedManifest(t)
	for _, line := range want {
		if f := strings.Split(line, "\t"); f[3] != strconv.Itoa(http.StatusOK) {
			t.Errorf("non-200 response in the corpus: %s", line)
		}
	}

	var workers []string
	for i := 0; i < 3; i++ {
		w := httptest.NewServer(New(Options{Worker: true}).Handler())
		t.Cleanup(w.Close)
		workers = append(workers, w.URL)
	}
	for _, replicas := range []int{1, 2} {
		coord := New(Options{Coordinate: workers, Replicas: replicas})
		for _, body := range []string{"campaign-spec", "scaling-spec", "colliding-spec"} {
			for _, req := range campaignRequests(body) {
				if got := manifestLine(t, coord, req, bodies); got != pinned[req] {
					t.Errorf("Replicas %d: coordinated campaign differs from its pinned line:\n want %s\n  got %s", replicas, pinned[req], got)
				}
			}
		}
	}
}
