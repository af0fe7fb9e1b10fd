// Package serve exposes the memoized study engine over HTTP/JSON — the
// first network-facing layer of the system. One Server wraps one
// repro.Engine, so every client shares a single suite cache: the first
// request for a configuration evaluates it, concurrent requests for the
// same experiment coalesce onto the engine's singleflight entries, and
// later requests are served from memory, bit-identical.
//
// Routes (see docs/ARCHITECTURE.md and the README for examples):
//
//	GET  /v1/experiments            list experiment metadata (JSON)
//	GET  /v1/experiments/{name}     one experiment; text, CSV, JSON or binary
//	POST /v1/experiments:batch      many experiments in one request
//	GET  /v1/machines               list the machine registry (JSON)
//	GET  /v1/machines/{name}        one machine's full JSON spec
//	POST /v1/sweep                  what-if hardware sweep; text, CSV, JSON or binary
//	POST /v1/campaign               multi-axis campaign; text, CSV, JSON, binary or streaming NDJSON
//	GET  /v1/roofline/{machine}     roofline report for a machine; text, JSON or binary
//	GET  /v1/cluster/{machine}      MPI scaling model for a machine; text, JSON or binary
//	GET  /metrics                   Prometheus-style text metrics
//	GET  /healthz                   readiness probe (503 until prewarm completes)
//	GET  /livez                     liveness probe (200 from the first request)
//	POST /v1/fabric/points          shard-scoped campaign points (Options.Worker)
//	GET  /v1/fabric/healthz         fabric liveness for the coordinator's prober (Options.Worker)
//	GET  /v1/fabric/snapshot        owner-scoped suite-cache snapshot (Options.Worker)
//	POST /v1/fabric/warm            pull peer snapshots into the local cache (Options.Worker)
//
// With Options.Coordinate the campaign endpoint shards its grid over a
// fleet of workers through internal/fabric; every format's bytes stay
// identical to a single-process run (the distributed determinism
// contract — docs/ARCHITECTURE.md).
//
// The text and CSV bodies are byte-identical to cmd/sg2042sim's stdout
// for the same experiment and options — the HTTP layer is purely
// transport, never rendering. Binary bodies (?format=binary) are the
// internal/wire frames, under the same determinism contract. One format
// table (renderBody) maps a negotiated format onto a body and its
// Content-Type for every rendering endpoint.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/fabric"
)

// Options configures a Server.
type Options struct {
	// Parallel is the engine's global concurrency bound, exactly as in
	// repro.Options: 0 picks GOMAXPROCS, 1 evaluates serially. Output
	// is identical for every setting.
	Parallel int
	// Prewarm declares that the owner will call Server.Prewarm before
	// the server is ready for traffic: /healthz answers 503 until the
	// prewarm pass completes (liveness stays on /livez). When false the
	// server is ready immediately.
	Prewarm bool
	// Worker mounts the distributed fabric's shard-scoped campaign
	// endpoint (POST /v1/fabric/points) beside the ordinary surface,
	// backed by the same engine — shard evaluations memoize into, and
	// warm-restart from, the one suite cache.
	Worker bool
	// Coordinate, when non-empty, runs POST /v1/campaign through a
	// fabric coordinator over these worker base URLs instead of the
	// local engine. Every other endpoint still serves locally. The
	// targets must be non-empty and unique (cmd/sg2042d validates them
	// at boot); an invalid list surfaces as an error on every campaign
	// request.
	Coordinate []string
	// Replicas dispatches each campaign shard to this many workers,
	// the top scorers under rendezvous hashing, and byte-compares their
	// frames, emitting on quorum and quarantining divergent workers
	// (<=1 disables replication). Only meaningful with Coordinate.
	Replicas int
}

// Server is the HTTP front end of the study engine. It is safe for
// concurrent use; create it once and share it across connections.
type Server struct {
	eng *repro.Engine
	reg *repro.MachineRegistry
	met *metrics
	mux *http.ServeMux
	// rc caches fully rendered response bodies (with precomputed ETags,
	// and gzip forms built on first demand): the engine is
	// deterministic, so a repeat request for the same rendering never
	// re-renders — see rendercache.go.
	rc *renderCache
	// machines renders the registry's listing and specs once.
	machines func() (machineBodies, error)
	// ready gates /healthz: false from New until the prewarm pass
	// completes (immediately true when Options.Prewarm is unset).
	ready atomic.Bool
	// wk is the fabric worker endpoint (Options.Worker); coord runs
	// campaigns through the distributed fabric (Options.Coordinate).
	// coordErr holds a target-list validation failure, answered on
	// every campaign request.
	wk       *fabric.Worker
	coord    *fabric.Coordinator
	coordErr error
}

// New returns a Server around a fresh engine with the paper's study
// defaults and the default machine registry (the paper's presets plus
// the SG2044).
func New(opts Options) *Server {
	s := &Server{
		eng: repro.NewEngine(repro.Options{Parallel: opts.Parallel}),
		reg: repro.DefaultMachineRegistry(),
		met: newMetrics(),
		mux: http.NewServeMux(),
		rc:  newRenderCache(),
	}
	s.machines = sync.OnceValues(func() (machineBodies, error) { return renderMachines(s.reg) })
	s.ready.Store(!opts.Prewarm)
	if opts.Worker {
		s.wk = fabric.NewWorker(s.eng, s.reg)
	}
	if len(opts.Coordinate) > 0 {
		s.coord, s.coordErr = fabric.NewCoordinator(opts.Coordinate, s.reg, nil)
		if s.coord != nil {
			s.coord.Replicas = opts.Replicas
		}
	}
	s.routes()
	return s
}

// Engine returns the server's underlying engine (tests use it to
// observe cache statistics).
func (s *Server) Engine() *repro.Engine { return s.eng }

// StartFabricProber begins coordinator-side health probing: workers
// die and rejoin the ring as their /v1/fabric/healthz answers change,
// with snapshot shipping on every rejoin. No-op unless the server
// coordinates. The prober stops when ctx is cancelled; the returned
// wait blocks until its probe loops have exited.
func (s *Server) StartFabricProber(ctx context.Context, cfg fabric.ProbeConfig) (wait func()) {
	if s.coord == nil {
		return func() {}
	}
	return s.coord.StartProber(ctx, cfg)
}

func (s *Server) routes() {
	s.handle("GET /v1/experiments", "list", s.handleList)
	s.handle("GET /v1/experiments/{name}", "experiment", s.handleExperiment)
	s.handle("POST /v1/experiments:batch", "batch", s.handleBatch)
	s.handle("GET /v1/machines", "machines", s.handleMachines)
	s.handle("GET /v1/machines/{name}", "machine", s.handleMachine)
	s.handle("POST /v1/sweep", "sweep", s.handleSweep)
	s.handle("POST /v1/campaign", "campaign", s.handleCampaign)
	s.handle("GET /v1/roofline/{machine}", "roofline", s.handleRoofline)
	s.handle("GET /v1/cluster/{machine}", "cluster", s.handleCluster)
	if s.wk != nil {
		s.handle("POST "+fabric.PointsPath, "fabric-points", s.wk.ServeHTTP)
		// The self-healing surface: the coordinator's prober watches
		// fabric healthz, and peers ship a (re)joining worker the cache
		// entries it owns through snapshot/warm.
		s.handle("GET "+fabric.HealthPath, "fabric-healthz", s.wk.ServeHealth)
		s.handle("GET "+fabric.SnapshotPath, "fabric-snapshot", s.wk.ServeSnapshot)
		s.handle("POST "+fabric.WarmPath, "fabric-warm", s.wk.ServeWarm)
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
}

// handleLivez is pure liveness: the process is up and serving requests.
// It never gates on prewarm, so orchestrators can tell a booting daemon
// from a dead one.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", textContentType)
	fmt.Fprintln(w, "ok")
}

// handleHealthz is readiness: 200 "ok" once the server is ready for
// traffic, 503 "warming" while a requested prewarm pass (Options.
// Prewarm + Server.Prewarm) is still rendering the corpus. Without
// prewarm the server is ready from the first request, so existing
// health checks keep working unchanged.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", textContentType)
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "warming")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handle registers h under pattern with per-endpoint metrics.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.met.instrument(endpoint, h))
}

// Handler returns the root handler; cmd/sg2042d mounts it on an
// http.Server and tests mount it on httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler so a *Server can be mounted
// directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// experimentJSON is the JSON envelope for one rendered experiment. The
// Output field carries the text (or CSV) rendering verbatim, so JSON
// clients see the same bytes text clients do.
type experimentJSON struct {
	Name   string `json:"name"`
	Title  string `json:"title,omitempty"`
	Format string `json:"format"`
	Output string `json:"output"`
}

// handleList serves GET /v1/experiments: the experiment metadata, in
// the paper's order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []repro.ExperimentInfo `json:"experiments"`
	}{repro.Experiments()})
}

// handleExperiment serves GET /v1/experiments/{name} with content
// negotiation: ?format=text|csv|json|binary wins, else the Accept
// header decides, else text. "all" is accepted and concatenates every
// experiment, exactly like cmd/sg2042sim -exp all. Renderings are
// served from the response cache: the body bytes, ETag and gzip form
// are computed once per (name, format) and repeat requests — or 304s
// for revalidations — cost no rendering at all.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := strings.ToLower(strings.TrimSpace(r.PathValue("name")))
	format, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := validExperiment(name); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	ent, err := s.rc.get(s.experimentJob(name, format))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	serveRendered(w, r, ent)
}

// experimentJob is the render-cache job for one experiment (or "all")
// in one format — the key and fill handleExperiment and the prewarm
// corpus share.
func (s *Server) experimentJob(name string, f format) (renderKey, renderFill) {
	return renderKey{kind: "experiment", name: name, format: f}, func() ([]byte, string, error) {
		info, known := repro.ExperimentByName(name) // "all" is not an experiment
		body, ctype, err := renderBody(f,
			func(csv bool) (string, error) { return s.eng.RunFormat(name, csv) },
			func() ([]byte, error) { return s.eng.RunBinary(name) },
			func(out string) any {
				return experimentJSON{Name: name, Title: info.Title, Format: "text", Output: out}
			})
		if f == formatCSV && known && !info.CSV {
			// Table 4 has no CSV form and renders as text; label the body
			// by what it actually is ("all" concatenations stay text/csv).
			ctype = textContentType
		}
		return body, ctype, err
	}
}

// batchRequest is the body of POST /v1/experiments:batch.
type batchRequest struct {
	// Names lists the experiments to run; "all" expands in place.
	Names []string `json:"names"`
	// Format is "text" (default) or "csv" — the rendering embedded in
	// each result.
	Format string `json:"format,omitempty"`
}

type batchResponse struct {
	Results []experimentJSON `json:"results"`
}

// handleBatch serves POST /v1/experiments:batch: the named experiments
// fanned out over the engine's internal/par worker pool, results
// aligned with the (expanded) request order. Identical names in
// concurrent batches coalesce on the engine cache like any other
// request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	// A legitimate batch is a few hundred bytes of names; bound the
	// body so a client cannot stream an unbounded request into memory.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if len(req.Names) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`empty batch: pass {"names": ["figure1", ...]}`))
		return
	}
	var csv bool
	switch req.Format {
	case "", "text":
	case "csv":
		csv = true
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown batch format %q (want text or csv)", req.Format))
		return
	}
	for _, name := range req.Names {
		if err := validExperiment(strings.ToLower(strings.TrimSpace(name))); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
	}
	names, outs, err := s.eng.RunEach(req.Names, csv)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := batchResponse{Results: make([]experimentJSON, len(names))}
	for i, name := range names {
		// The format field reports what the output actually is: an
		// experiment without a CSV form (Table 4) renders as text even
		// in a CSV batch.
		title, format := "", "text"
		if info, ok := repro.ExperimentByName(name); ok {
			title = info.Title
			if csv && info.CSV {
				format = "csv"
			}
		}
		resp.Results[i] = experimentJSON{Name: name, Title: title, Format: format, Output: outs[i]}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: per-endpoint request/error/latency counters plus the live
// engine cache and render cache counters (hits, misses, and the
// derived hit rates).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.eng.CacheStats()
	rhits, rmisses := s.rc.Stats()
	var fs *fabric.FabricStats
	if s.coord != nil {
		v := s.coord.Stats()
		fs = &v
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.met.render(hits, misses, rhits, rmisses, s.ready.Load(), fs))
}

// validExperiment reports whether a canonicalized name is servable —
// one of the paper's experiments, or the "all" batch. Validating up
// front keeps the 404-vs-500 decision independent of the engine's
// error wording.
func validExperiment(name string) error {
	if name == "all" {
		return nil
	}
	if _, ok := repro.ExperimentByName(name); !ok {
		return fmt.Errorf("unknown experiment %q (want one of %s, or all)",
			name, strings.Join(repro.ExperimentNames, ", "))
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// marshalJSONBody renders v exactly as writeJSON streams it (indented,
// trailing newline), as a byte slice the render cache can keep.
func marshalJSONBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
