package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/perfmodel"
)

// metrics is the server's hand-rolled metrics registry: per-endpoint
// request, error and cumulative-latency counters, rendered in the
// Prometheus text exposition format. The engine's cache counters are
// read live at render time rather than stored, so /metrics never lags
// the cache.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	// campaignPoints counts grid points served by the campaign endpoint
	// (cached responses included — the points a client received);
	// campaignStreams counts the responses delivered as NDJSON.
	campaignPoints  uint64
	campaignStreams uint64
	// prewarmEntries/prewarmErrors/prewarmSeconds record the boot-time
	// corpus precompute (Server.Prewarm): renderings filled, fills that
	// errored, and the wall-clock the pass took.
	prewarmEntries uint64
	prewarmErrors  uint64
	prewarmSeconds float64
	// fleetDown counts campaign requests refused because every fabric
	// worker was down (the 502 + Retry-After path) — its own counter,
	// not folded into generic endpoint errors, so an operator can alert
	// on fleet outages without parsing error rates.
	fleetDown uint64
	// panics counts campaign evaluations that failed with a recovered
	// panic (*par.PanicError) — a bug, never a client error.
	panics uint64
}

type endpointStats struct {
	requests uint64
	errors   uint64 // responses with status >= 400
	seconds  float64
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointStats)}
}

// instrument wraps h, timing each request and counting error responses
// under the endpoint label.
func (m *metrics) instrument(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		m.observe(endpoint, time.Since(start), sw.status)
	})
}

// setPrewarm records a completed prewarm pass.
func (m *metrics) setPrewarm(entries, errors int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prewarmEntries = uint64(entries)
	m.prewarmErrors = uint64(errors)
	m.prewarmSeconds = d.Seconds()
}

// addFleetDown records one campaign refused with the whole fleet down.
func (m *metrics) addFleetDown() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleetDown++
}

// addPanic records one campaign evaluation that panicked.
func (m *metrics) addPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// addCampaign records one served campaign response.
func (m *metrics) addCampaign(points int, streamed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.campaignPoints += uint64(points)
	if streamed {
		m.campaignStreams++
	}
}

func (m *metrics) observe(endpoint string, d time.Duration, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.endpoints[endpoint]
	if st == nil {
		st = &endpointStats{}
		m.endpoints[endpoint] = st
	}
	st.requests++
	if status >= 400 {
		st.errors++
	}
	st.seconds += d.Seconds()
}

// render emits the registry in the Prometheus text format, folding in
// the engine cache and render cache counters, the model's process-wide
// uncore memo counters, the readiness gauge, and — when the server
// coordinates a fabric — the fleet's self-healing stats. Endpoints are
// sorted so the output is stable.
func (m *metrics) render(cacheHits, cacheMisses, renderHits, renderMisses uint64, ready bool, fs *fabric.FabricStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	b.WriteString("# HELP sg2042d_requests_total HTTP requests served, by endpoint.\n")
	b.WriteString("# TYPE sg2042d_requests_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "sg2042d_requests_total{endpoint=%q} %d\n", name, m.endpoints[name].requests)
	}
	b.WriteString("# HELP sg2042d_request_errors_total HTTP responses with status >= 400, by endpoint.\n")
	b.WriteString("# TYPE sg2042d_request_errors_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "sg2042d_request_errors_total{endpoint=%q} %d\n", name, m.endpoints[name].errors)
	}
	b.WriteString("# HELP sg2042d_request_seconds_total Cumulative request latency in seconds, by endpoint.\n")
	b.WriteString("# TYPE sg2042d_request_seconds_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "sg2042d_request_seconds_total{endpoint=%q} %.6f\n", name, m.endpoints[name].seconds)
	}

	b.WriteString("# HELP sg2042d_engine_cache_hits_total Suite evaluations served from the engine cache.\n")
	b.WriteString("# TYPE sg2042d_engine_cache_hits_total counter\n")
	fmt.Fprintf(&b, "sg2042d_engine_cache_hits_total %d\n", cacheHits)
	b.WriteString("# HELP sg2042d_engine_cache_misses_total Suite evaluations computed on a cache miss.\n")
	b.WriteString("# TYPE sg2042d_engine_cache_misses_total counter\n")
	fmt.Fprintf(&b, "sg2042d_engine_cache_misses_total %d\n", cacheMisses)
	b.WriteString("# HELP sg2042d_engine_cache_hit_rate Fraction of suite lookups served from the cache.\n")
	b.WriteString("# TYPE sg2042d_engine_cache_hit_rate gauge\n")
	rate := 0.0
	if total := cacheHits + cacheMisses; total > 0 {
		rate = float64(cacheHits) / float64(total)
	}
	fmt.Fprintf(&b, "sg2042d_engine_cache_hit_rate %.6f\n", rate)

	uhits, umisses := perfmodel.UncoreStats()
	b.WriteString("# HELP sg2042d_model_uncore_hits_total Suite evaluations whose clock-independent half came from the model's uncore memo.\n")
	b.WriteString("# TYPE sg2042d_model_uncore_hits_total counter\n")
	fmt.Fprintf(&b, "sg2042d_model_uncore_hits_total %d\n", uhits)
	b.WriteString("# HELP sg2042d_model_uncore_misses_total Suite evaluations that computed the clock-independent half (placement analysis included).\n")
	b.WriteString("# TYPE sg2042d_model_uncore_misses_total counter\n")
	fmt.Fprintf(&b, "sg2042d_model_uncore_misses_total %d\n", umisses)

	b.WriteString("# HELP sg2042d_render_cache_hits_total Responses served from the rendered-body cache.\n")
	b.WriteString("# TYPE sg2042d_render_cache_hits_total counter\n")
	fmt.Fprintf(&b, "sg2042d_render_cache_hits_total %d\n", renderHits)
	b.WriteString("# HELP sg2042d_render_cache_misses_total Responses rendered on a cache miss.\n")
	b.WriteString("# TYPE sg2042d_render_cache_misses_total counter\n")
	fmt.Fprintf(&b, "sg2042d_render_cache_misses_total %d\n", renderMisses)
	b.WriteString("# HELP sg2042d_render_cache_hit_rate Fraction of cacheable requests served without re-rendering.\n")
	b.WriteString("# TYPE sg2042d_render_cache_hit_rate gauge\n")
	rrate := 0.0
	if total := renderHits + renderMisses; total > 0 {
		rrate = float64(renderHits) / float64(total)
	}
	fmt.Fprintf(&b, "sg2042d_render_cache_hit_rate %.6f\n", rrate)

	b.WriteString("# HELP sg2042d_campaign_points_total Campaign grid points served (cached responses included).\n")
	b.WriteString("# TYPE sg2042d_campaign_points_total counter\n")
	fmt.Fprintf(&b, "sg2042d_campaign_points_total %d\n", m.campaignPoints)
	b.WriteString("# HELP sg2042d_campaign_streams_total Campaign responses delivered as NDJSON streams.\n")
	b.WriteString("# TYPE sg2042d_campaign_streams_total counter\n")
	fmt.Fprintf(&b, "sg2042d_campaign_streams_total %d\n", m.campaignStreams)

	b.WriteString("# HELP sg2042d_fabric_fleet_down_total Campaign requests refused because every fabric worker was down.\n")
	b.WriteString("# TYPE sg2042d_fabric_fleet_down_total counter\n")
	fmt.Fprintf(&b, "sg2042d_fabric_fleet_down_total %d\n", m.fleetDown)
	b.WriteString("# HELP sg2042d_panics_total Campaign evaluations that failed with a recovered panic.\n")
	b.WriteString("# TYPE sg2042d_panics_total counter\n")
	fmt.Fprintf(&b, "sg2042d_panics_total %d\n", m.panics)

	if fs != nil {
		b.WriteString("# HELP sg2042d_fabric_probe_deaths_total Worker live-to-dead transitions observed by the health prober.\n")
		b.WriteString("# TYPE sg2042d_fabric_probe_deaths_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_probe_deaths_total %d\n", fs.ProbeDeaths)
		b.WriteString("# HELP sg2042d_fabric_probe_revivals_total Worker dead-to-live transitions (rejoins) observed by the health prober.\n")
		b.WriteString("# TYPE sg2042d_fabric_probe_revivals_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_probe_revivals_total %d\n", fs.ProbeRevivals)
		b.WriteString("# HELP sg2042d_fabric_warm_joins_total Warm-join snapshot shipments completed for (re)joined workers.\n")
		b.WriteString("# TYPE sg2042d_fabric_warm_joins_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_warm_joins_total %d\n", fs.WarmJoins)
		b.WriteString("# HELP sg2042d_fabric_warm_entries_total Suite-cache entries installed across all warm-joins.\n")
		b.WriteString("# TYPE sg2042d_fabric_warm_entries_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_warm_entries_total %d\n", fs.WarmInstalled)
		b.WriteString("# HELP sg2042d_fabric_warm_errors_total Failed warm-join relays: a peer snapshot GET or a warm POST to the joining worker that did not succeed.\n")
		b.WriteString("# TYPE sg2042d_fabric_warm_errors_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_warm_errors_total %d\n", fs.WarmErrors)
		b.WriteString("# HELP sg2042d_fabric_quarantines_total Workers quarantined after diverging from replica quorum.\n")
		b.WriteString("# TYPE sg2042d_fabric_quarantines_total counter\n")
		fmt.Fprintf(&b, "sg2042d_fabric_quarantines_total %d\n", fs.Quarantines)
		b.WriteString("# HELP sg2042d_fabric_worker_up Whether each fabric worker is currently live in the ring.\n")
		b.WriteString("# TYPE sg2042d_fabric_worker_up gauge\n")
		for _, ms := range fs.Members {
			up := 0
			if ms.Live {
				up = 1
			}
			fmt.Fprintf(&b, "sg2042d_fabric_worker_up{target=%q} %d\n", ms.Target, up)
		}
		b.WriteString("# HELP sg2042d_fabric_worker_quarantined Whether each fabric worker is quarantined (sticky-dead until the coordinator restarts).\n")
		b.WriteString("# TYPE sg2042d_fabric_worker_quarantined gauge\n")
		for _, ms := range fs.Members {
			q := 0
			if ms.Quarantined {
				q = 1
			}
			fmt.Fprintf(&b, "sg2042d_fabric_worker_quarantined{target=%q} %d\n", ms.Target, q)
		}
	}

	b.WriteString("# HELP sg2042d_prewarm_ready Whether the server is ready for traffic (prewarm complete, or prewarm not requested).\n")
	b.WriteString("# TYPE sg2042d_prewarm_ready gauge\n")
	readyVal := 0
	if ready {
		readyVal = 1
	}
	fmt.Fprintf(&b, "sg2042d_prewarm_ready %d\n", readyVal)
	b.WriteString("# HELP sg2042d_prewarm_entries_total Renderings filled by the boot-time prewarm pass.\n")
	b.WriteString("# TYPE sg2042d_prewarm_entries_total counter\n")
	fmt.Fprintf(&b, "sg2042d_prewarm_entries_total %d\n", m.prewarmEntries)
	b.WriteString("# HELP sg2042d_prewarm_errors_total Prewarm fills that errored (the corpus entry stays cold).\n")
	b.WriteString("# TYPE sg2042d_prewarm_errors_total counter\n")
	fmt.Fprintf(&b, "sg2042d_prewarm_errors_total %d\n", m.prewarmErrors)
	b.WriteString("# HELP sg2042d_prewarm_seconds Wall-clock seconds the prewarm pass took.\n")
	b.WriteString("# TYPE sg2042d_prewarm_seconds gauge\n")
	fmt.Fprintf(&b, "sg2042d_prewarm_seconds %.6f\n", m.prewarmSeconds)
	return b.String()
}

// statusWriter records the response status for the error counter.
//
// It has no Flush method: no handler flushes by type-asserting
// http.Flusher. Unwrap lets http.NewResponseController reach the
// connection's writer, which is how the NDJSON campaign stream flushes
// its first line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap returns the wrapped writer for http.NewResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
