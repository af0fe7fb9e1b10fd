package serve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func doGet(t *testing.T, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// A repeat GET must be served from the render cache with a strong ETag,
// and revalidation with that ETag must answer 304 with no body.
func TestExperimentETagAndConditionalGet(t *testing.T) {
	s := New(Options{Parallel: 1})
	first := doGet(t, s, "/v1/experiments/table4", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") {
		t.Fatalf("want a strong ETag, got %q", etag)
	}
	second := doGet(t, s, "/v1/experiments/table4", nil)
	if second.Header().Get("ETag") != etag {
		t.Errorf("ETag changed between identical requests: %q vs %q", etag, second.Header().Get("ETag"))
	}
	if second.Body.String() != first.Body.String() {
		t.Error("cached body differs from first rendering")
	}

	cond := doGet(t, s, "/v1/experiments/table4", map[string]string{"If-None-Match": etag})
	if cond.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", cond.Code)
	}
	if cond.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", cond.Body.Len())
	}
	// A stale or foreign tag must get the full body again.
	miss := doGet(t, s, "/v1/experiments/table4", map[string]string{"If-None-Match": `"nope"`})
	if miss.Code != http.StatusOK || miss.Body.Len() == 0 {
		t.Errorf("stale tag: status %d body %d bytes", miss.Code, miss.Body.Len())
	}

	hits, misses := s.rc.Stats()
	if misses != 1 {
		t.Errorf("render cache misses = %d, want 1", misses)
	}
	if hits != 3 {
		t.Errorf("render cache hits = %d, want 3", hits)
	}
}

// Distinct formats are distinct cache entries with distinct ETags.
func TestRenderCacheKeyedByFormat(t *testing.T) {
	s := New(Options{Parallel: 1})
	text := doGet(t, s, "/v1/experiments/figure1", nil)
	csv := doGet(t, s, "/v1/experiments/figure1?format=csv", nil)
	jsn := doGet(t, s, "/v1/experiments/figure1?format=json", nil)
	tags := map[string]bool{}
	for _, w := range []*httptest.ResponseRecorder{text, csv, jsn} {
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		tags[w.Header().Get("ETag")] = true
	}
	if len(tags) != 3 {
		t.Errorf("3 formats produced %d distinct ETags", len(tags))
	}
	if _, misses := s.rc.Stats(); misses != 3 {
		t.Errorf("misses = %d, want 3", misses)
	}
}

// Clients that accept gzip get the stored compressed bytes (with a
// gzip-specific ETag) and they must inflate to the identity body.
func TestGzipFromRenderCache(t *testing.T) {
	s := New(Options{Parallel: 1})
	plain := doGet(t, s, "/v1/experiments/figure1", nil)
	gz := doGet(t, s, "/v1/experiments/figure1", map[string]string{"Accept-Encoding": "gzip"})
	if gz.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("want gzip response, got encoding %q", gz.Header().Get("Content-Encoding"))
	}
	vary := strings.Join(gz.Header().Values("Vary"), ", ")
	if !strings.Contains(vary, "Accept-Encoding") || !strings.Contains(vary, "Accept") {
		t.Errorf("Vary = %q, want Accept and Accept-Encoding", vary)
	}
	if !strings.HasSuffix(gz.Header().Get("ETag"), `-gzip"`) {
		t.Errorf("gzip representation should carry its own ETag, got %q", gz.Header().Get("ETag"))
	}
	zr, err := gzip.NewReader(gz.Body)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(inflated) != plain.Body.String() {
		t.Error("gzip body does not inflate to the identity body")
	}
	// Conditional gzip revalidation against the gzip ETag.
	cond := doGet(t, s, "/v1/experiments/figure1", map[string]string{
		"Accept-Encoding": "gzip", "If-None-Match": gz.Header().Get("ETag")})
	if cond.Code != http.StatusNotModified {
		t.Errorf("gzip revalidation status %d, want 304", cond.Code)
	}
	// An explicit q=0 opts out of compression.
	ident := doGet(t, s, "/v1/experiments/figure1", map[string]string{"Accept-Encoding": "gzip;q=0"})
	if ident.Header().Get("Content-Encoding") == "gzip" {
		t.Error("gzip served despite q=0")
	}
}

// Lazy compression must answer every gzip row of the byte manifest,
// and the identity row of the same request, whichever representation a
// fresh server is asked for first.
func TestGzipMatchesGolden(t *testing.T) {
	lines, pinned := pinnedManifest(t)
	bodies := manifestBodies(t)
	for _, line := range lines {
		gz := requestOf(line)
		if !gz.gzip {
			continue
		}
		identity := gz
		identity.gzip = false
		gzipFirst, identityFirst := New(Options{Parallel: 1}), New(Options{Parallel: 1})
		for _, c := range []struct {
			s   *Server
			req manifestRequest
		}{{gzipFirst, gz}, {gzipFirst, identity}, {identityFirst, identity}, {identityFirst, gz}} {
			if got := manifestLine(t, c.s, c.req, bodies); got != pinned[c.req] {
				t.Errorf("got  %s\nwant %s", got, pinned[c.req])
			}
		}
	}
}

// A revalidation is the first request to want the gzip form: it must
// still compress, find the -gzip ETag matching, and answer 304 — on a
// fresh server and on an entry so far served only as identity.
func TestGzipConditionalFirstRequest(t *testing.T) {
	const path = "/v1/experiments/figure1"
	gzTag := doGet(t, New(Options{Parallel: 1}), path, map[string]string{"Accept-Encoding": "gzip"}).Header().Get("ETag")
	hdr := map[string]string{"Accept-Encoding": "gzip", "If-None-Match": gzTag}
	if w := doGet(t, New(Options{Parallel: 1}), path, hdr); w.Code != http.StatusNotModified {
		t.Errorf("first request revalidating the gzip ETag: status %d, want 304", w.Code)
	}
	s := New(Options{Parallel: 1})
	doGet(t, s, path, nil)
	if w := doGet(t, s, path, hdr); w.Code != http.StatusNotModified {
		t.Errorf("gzip revalidation after identity-only requests: status %d, want 304", w.Code)
	}
}

// Concurrent first gzip requests share one compression.
func TestGzipCompressesOnce(t *testing.T) {
	const workers = 8
	ent := newRenderEntry([][]byte{[]byte(strings.Repeat("compressible body ", 100))}, "text/plain")
	bodies := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], _ = ent.gzip()
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if len(b) == 0 || &b[0] != &bodies[0][0] {
			t.Fatalf("request %d got its own compression (or none)", i)
		}
	}

	s := New(Options{Parallel: 1})
	gzTag := strings.TrimSuffix(doGet(t, s, "/v1/experiments/figure1", nil).Header().Get("ETag"), `"`) + `-gzip"`
	codes := make([]int, workers)
	etags := make([]string, workers)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := doGet(t, s, "/v1/experiments/figure1", map[string]string{"Accept-Encoding": "gzip"})
			codes[i], etags[i] = w.Code, w.Header().Get("ETag")
		}()
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK || etags[i] != gzTag {
			t.Errorf("concurrent gzip request %d: %d %s", i, codes[i], etags[i])
		}
	}
}

// entryBody is an entry's body in one buffer.
func entryBody(e *renderEntry) []byte {
	if e == nil {
		return nil
	}
	return bytes.Join(e.chunks, nil)
}

// replay serves ent to a GET, gzip-accepting or not.
func replay(ent *renderEntry, gzipOK bool) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, "/v1/campaign", nil)
	if gzipOK {
		r.Header.Set("Accept-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	serveRendered(w, r, ent)
	return w
}

// chunkedBody is a compressible body of about 3 campaignBatch chunks,
// cut the way a campaign stream cuts it.
func chunkedBody() ([]byte, [][]byte) {
	body := []byte(strings.Repeat(`{"point":7,"machine":"SG2042","total_s":1.25}`+"\n", 2000))
	return body, [][]byte{body[:campaignBatch], body[campaignBatch : 2*campaignBatch], body[2*campaignBatch:]}
}

// TestChunkedEntryReplaysLikeOneBuffer: an entry kept as chunks
// replays exactly as one buffer of the same bytes does: the same body,
// ETag and Content-Length, and the same gzip body and -gzip ETag.
func TestChunkedEntryReplaysLikeOneBuffer(t *testing.T) {
	body, chunks := chunkedBody()
	for _, gzipOK := range []bool{false, true} {
		want := replay(newRenderEntry([][]byte{body}, "application/x-ndjson"), gzipOK)
		got := replay(newRenderEntry(chunks, "application/x-ndjson"), gzipOK)
		if want.Code != http.StatusOK || got.Code != http.StatusOK {
			t.Fatalf("gzip %v: status %d and %d", gzipOK, want.Code, got.Code)
		}
		for _, h := range []string{"ETag", "Content-Length", "Content-Encoding", "Content-Type"} {
			if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
				t.Errorf("gzip %v: %s %q, want %q", gzipOK, h, g, w)
			}
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("gzip %v: chunked replay body differs from the single buffer's", gzipOK)
		}
		if gzipOK && !strings.HasSuffix(got.Header().Get("ETag"), `-gzip"`) {
			t.Errorf("gzip replay ETag %q is not the -gzip tag", got.Header().Get("ETag"))
		}
	}
	if got := replay(newRenderEntry(chunks, "application/x-ndjson"), false).Body.Bytes(); !bytes.Equal(got, body) {
		t.Error("chunked replay is not the body")
	}
}

// TestChunkedEntryHashesOnce: concurrent first replays of a chunked
// entry, identity and gzip, share one hash: the ETags they send are
// one string per representation, not equal copies.
func TestChunkedEntryHashesOnce(t *testing.T) {
	const workers = 8
	_, chunks := chunkedBody()
	ent := newRenderEntry(chunks, "application/x-ndjson")
	etags := make([]string, workers)
	var wg sync.WaitGroup
	for i := range etags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etags[i] = replay(ent, i%2 == 1).Header().Get("ETag")
		}()
	}
	wg.Wait()
	for i, tag := range etags {
		if tag == "" || unsafe.StringData(tag) != unsafe.StringData(etags[i%2]) {
			t.Fatalf("replay %d got its own hash (or none): %q", i, tag)
		}
	}
}

// Small bodies are not worth compressing and must be served identity.
func TestSmallBodiesNotGzipped(t *testing.T) {
	s := New(Options{Parallel: 1})
	w := doGet(t, s, "/v1/experiments/table4?format=csv", nil) // Table 4 is ~300B of text
	if w.Body.Len() >= gzipMinSize {
		t.Skipf("table4 body grew to %dB; pick a smaller fixture", w.Body.Len())
	}
	gz := doGet(t, s, "/v1/experiments/table4?format=csv", map[string]string{"Accept-Encoding": "gzip"})
	if gz.Header().Get("Content-Encoding") != "" {
		t.Errorf("sub-threshold body compressed (%dB)", w.Body.Len())
	}
}

// Reports and sweeps ride the same cache: repeated roofline GETs and
// identical sweep POSTs hit, and sweep ETags revalidate.
func TestReportsAndSweepsCached(t *testing.T) {
	s := New(Options{Parallel: 1})
	a := doGet(t, s, "/v1/roofline/SG2042", nil)
	b := doGet(t, s, "/v1/roofline/SG2042", nil)
	if a.Body.String() != b.Body.String() || b.Header().Get("ETag") == "" {
		t.Error("roofline repeat not served coherently from cache")
	}
	// Different precision is a different entry.
	c := doGet(t, s, "/v1/roofline/SG2042?prec=f32", nil)
	if c.Header().Get("ETag") == a.Header().Get("ETag") {
		t.Error("f32 roofline shares the f64 ETag")
	}

	body := `{"machine":"SG2042","axis":"cores","values":[32,64]}`
	post := func(hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w
	}
	s1 := post(nil)
	if s1.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", s1.Code, s1.Body.String())
	}
	etag := s1.Header().Get("ETag")
	if etag == "" {
		t.Fatal("sweep response has no ETag")
	}
	// 304 is a GET/HEAD answer; a conditional POST gets the full body
	// (from the cache) with the same ETag.
	s2 := post(map[string]string{"If-None-Match": etag})
	if s2.Code != http.StatusOK || s2.Body.Len() == 0 {
		t.Errorf("conditional sweep POST: status %d body %dB, want full 200", s2.Code, s2.Body.Len())
	}
	if s2.Header().Get("ETag") != etag || s2.Body.String() != s1.Body.String() {
		t.Error("repeat sweep not served from cache")
	}
	// Fills: roofline f64, roofline f32, sweep. Hits: roofline repeat,
	// sweep repeat.
	hits, misses := s.rc.Stats()
	if hits != 2 || misses != 3 {
		t.Errorf("render cache hits/misses = %d/%d, want 2/3", hits, misses)
	}
}

// The /metrics endpoint must expose the render cache counters.
func TestMetricsExposeRenderCache(t *testing.T) {
	s := New(Options{Parallel: 1})
	doGet(t, s, "/v1/experiments/table4", nil)
	doGet(t, s, "/v1/experiments/table4", nil)
	m := doGet(t, s, "/metrics", nil).Body.String()
	for _, want := range []string{
		"sg2042d_render_cache_hits_total 1",
		"sg2042d_render_cache_misses_total 1",
		"sg2042d_render_cache_hit_rate 0.500000",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A fill error must not be cached: the slot is removed so a later
// request retries instead of replaying a transient failure forever.
func TestRenderCacheDoesNotCacheErrors(t *testing.T) {
	c := newRenderCache()
	calls := 0
	fail := func() ([]byte, string, error) {
		calls++
		return nil, "", fmt.Errorf("boom %d", calls)
	}
	k := renderKey{kind: "experiment", name: "x"}
	if _, err := c.get(k, fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := c.get(k, fail); err == nil {
		t.Fatal("want error on retry")
	}
	if calls != 2 {
		t.Errorf("fill ran %d times, want 2 (errors must not stick)", calls)
	}
	ok := func() ([]byte, string, error) { return []byte("fine"), "text/plain", nil }
	ent, err := c.get(k, ok)
	if err != nil || string(entryBody(ent)) != "fine" {
		t.Errorf("recovery fill: %v %q", err, entryBody(ent))
	}
	// Every fill that ran is a miss, the two failed ones included.
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Errorf("stats after errors = %d/%d, want 0 hits / 3 misses", hits, misses)
	}
}

// At capacity the cache evicts to make room — memory stays bounded
// under client-controlled key spaces (inline sweep specs), while new
// keys keep caching and coalescing.
func TestRenderCacheBounded(t *testing.T) {
	c := newRenderCache()
	fill := func() ([]byte, string, error) { return []byte("body"), "text/plain", nil }
	for i := 0; i < maxRenderEntries+50; i++ {
		if _, err := c.get(renderKey{kind: "sweep", variant: fmt.Sprint(i)}, fill); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > maxRenderEntries {
			t.Fatalf("cache grew to %d entries past the %d cap", n, maxRenderEntries)
		}
	}
	// A fresh key past the cap is still cached: the second request is
	// a hit, not a re-render.
	calls := 0
	over := func() ([]byte, string, error) { calls++; return []byte("over"), "text/plain", nil }
	k := renderKey{kind: "sweep", variant: "overflow"}
	for i := 0; i < 2; i++ {
		ent, err := c.get(k, over)
		if err != nil || string(entryBody(ent)) != "over" {
			t.Fatalf("overflow get %d: %v %q", i, err, entryBody(ent))
		}
	}
	if calls != 1 {
		t.Errorf("overflow key rendered %d times, want 1 (evict-and-store keeps caching)", calls)
	}
}

func TestEtagMatches(t *testing.T) {
	for _, c := range []struct {
		header, etag string
		want         bool
	}{
		{`"abc"`, `"abc"`, true},
		{`W/"abc"`, `"abc"`, true},
		{`"x", "abc"`, `"abc"`, true},
		{`*`, `"abc"`, true},
		{`"abcd"`, `"abc"`, false},
		{``, `"abc"`, false},
	} {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The serving hot path must stay allocation-lean: a conditional GET
// writes no body and a cached full GET writes one stored slice. The
// bounds are deliberately loose (net/http header plumbing allocates)
// but catch any reflection- or re-render-sized regression, which costs
// hundreds of allocations.
func TestServeHotPathAllocs(t *testing.T) {
	s := New(Options{Parallel: 1})
	warm := doGet(t, s, "/v1/experiments/figure1", nil)
	etag := warm.Header().Get("ETag")

	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	full := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
	})
	if full > 60 {
		t.Errorf("cached GET allocates %.0f/op, want <= 60", full)
	}

	creq := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	creq.Header.Set("If-None-Match", etag)
	cond := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, creq)
	})
	if cond > 40 {
		t.Errorf("conditional GET allocates %.0f/op, want <= 40", cond)
	}
	if cond >= full {
		t.Errorf("304 path (%.0f allocs) should be cheaper than the body path (%.0f)", cond, full)
	}

	// Cached report GETs look up only the canonical label before the
	// render cache, which copies no machine. These rows are exact pins,
	// so they hold only without -race: the race detector's sync.Pool
	// drops a random share of Puts.
	if raceEnabled {
		return
	}
	for _, row := range []struct {
		path string
		max  float64
	}{
		{"/v1/roofline/SG2042", 23},
		{"/v1/cluster/SG2042", 25},
	} {
		doGet(t, s, row.path, nil)
		req := httptest.NewRequest(http.MethodGet, row.path, nil)
		got := testing.AllocsPerRun(50, func() {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
		})
		if got > row.max {
			t.Errorf("cached GET %s allocates %.0f/op, want <= %.0f", row.path, got, row.max)
		}
	}
}

// BenchmarkHTTPGetCached is the serving hot path end to end: a warm
// server answering GET /v1/experiments/{name} from the render cache.
func BenchmarkHTTPGetCached(b *testing.B) {
	s := New(Options{Parallel: 1})
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatal(w.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
	}
}

// BenchmarkHTTPGetConditional is the revalidation path: If-None-Match
// answered with a bodyless 304.
func BenchmarkHTTPGetConditional(b *testing.B) {
	s := New(Options{Parallel: 1})
	first := httptest.NewRecorder()
	s.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil))
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/figure1", nil)
	req.Header.Set("If-None-Match", first.Header().Get("ETag"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
	}
}
