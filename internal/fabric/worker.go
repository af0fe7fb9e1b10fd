package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro"
)

// pointsRequest is the body of POST /v1/fabric/points: the client's
// campaign spec, verbatim, plus the grid indices this worker should
// evaluate. The worker re-expands the spec itself — the grid is a pure
// function of the spec, so coordinator and worker agree on what each
// index means without ever shipping expanded machines.
type pointsRequest struct {
	Spec   json.RawMessage `json:"spec"`
	Points []int           `json:"points"`
}

// Worker serves the shard-scoped campaign API. It wraps the same
// engine the node's ordinary serving surface uses, so shard points
// memoize into — and warm-restart from — the one suite cache.
type Worker struct {
	eng *repro.Engine
	reg *repro.MachineRegistry
	// client performs warm-join snapshot pulls from peers
	// (ServeWarm); tests may swap it.
	client *http.Client
}

// NewWorker wraps an engine and registry (nil reg means the default
// registry) as a shard worker.
func NewWorker(eng *repro.Engine, reg *repro.MachineRegistry) *Worker {
	if reg == nil {
		reg = repro.DefaultMachineRegistry()
	}
	return &Worker{
		eng: eng,
		reg: reg,
		// Snapshot pulls are a few MB of local traffic at worst; a
		// bounded client keeps a hung peer from wedging a warm-join.
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// ServeHTTP answers POST /v1/fabric/points, streaming one
// length-prefixed frame per requested point, in request order (not
// grid order — the coordinator owns ordering), each written as soon as
// the point and every point requested before it are evaluated, and
// flushed per frame when w is an http.Flusher. Behind the daemon's
// metrics wrapper it is not, and frames batch in net/http's buffer. Spec
// and index validation (CampaignSpec.CheckPoints: in range, no
// duplicates, and at least one point) happen before the first frame,
// so protocol errors are clean JSON with a real status code; a failure
// after streaming starts tears the stream, which the coordinator
// treats like a dead worker.
func (wk *Worker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var req pointsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("decoding points request: %w", err))
		return
	}
	if len(req.Spec) == 0 {
		workerError(w, http.StatusBadRequest, fmt.Errorf("points request has no spec"))
		return
	}
	spec, err := repro.CampaignSpecFromJSON(req.Spec, wk.reg)
	if err != nil {
		status := http.StatusBadRequest
		var unknown *repro.UnknownMachineError
		if errors.As(err, &unknown) {
			status = http.StatusNotFound
		}
		workerError(w, status, err)
		return
	}
	if len(req.Points) == 0 {
		workerError(w, http.StatusBadRequest, fmt.Errorf("points request selects no points"))
		return
	}
	if err := spec.CheckPoints(req.Points); err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", ContentType)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	var buf []byte
	err = wk.eng.CampaignPoints(spec, req.Points, func(p repro.CampaignPoint) error {
		frame, err := appendPoint(buf[:0], p)
		if err != nil {
			return err
		}
		buf = frame
		if err := writeFrame(w, frame); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// The stream is already open: tear the connection so the
		// coordinator sees a hard failure, not a clean short stream.
		panic(http.ErrAbortHandler)
	}
}

// Register mounts every worker endpoint on a mux.
func (wk *Worker) Register(mux *http.ServeMux) {
	mux.Handle(PointsPath, wk)
	mux.HandleFunc(HealthPath, wk.ServeHealth)
	mux.HandleFunc(SnapshotPath, wk.ServeSnapshot)
	mux.HandleFunc(WarmPath, wk.ServeWarm)
}

// ServeHealth answers the fabric readiness probe. A worker that can
// run this handler can serve shard traffic, so the answer is
// unconditionally 200 — warmth is a performance property, not a
// liveness one.
func (wk *Worker) ServeHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ServeSnapshot answers GET /v1/fabric/snapshot?arc=lo-hi,...: the
// worker's suite-cache entries whose machine fingerprints the arcs
// contain, in the core snapshot wire format. Without an arc parameter
// the full cache is returned. The body is deterministic for a given
// cache state (entries sort by canonical key), so two peers holding
// the same entries ship identical bytes.
func (wk *Worker) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	arcs, err := ParseArcs(r.URL.Query().Get("arc"))
	if err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
	}
	var keep func(uint64) bool
	if len(arcs) > 0 {
		keep = func(fp uint64) bool {
			for _, a := range arcs {
				if a.Contains(fp) {
					return true
				}
			}
			return false
		}
	}
	data, err := wk.eng.SnapshotCacheIf(keep)
	if err != nil {
		workerError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", SnapshotContentType)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	_, _ = w.Write(data)
}

// warmRequest is the body of POST /v1/fabric/warm: the peers to pull
// from and the arcs (FormatArcs encoding) this worker should warm.
type warmRequest struct {
	Peers []string `json:"peers"`
	Arc   string   `json:"arc"`
}

// warmResponse reports a warm-join pull: entries installed into the
// cache, peers successfully pulled, and per-peer failures (best
// effort — a dead peer costs warmth, not correctness).
type warmResponse struct {
	Installed int      `json:"installed"`
	Peers     int      `json:"peers"`
	Errors    []string `json:"errors,omitempty"`
}

// ServeWarm answers POST /v1/fabric/warm by pulling the named arcs'
// snapshot from each peer and installing the entries into the
// worker's own suite cache (already-cached keys are skipped). Failures
// against individual peers are reported but not fatal: a warm-join is
// an optimization, and a worker that could not warm simply evaluates
// its shard cold, bit-identically.
func (wk *Worker) ServeWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var req warmRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("decoding warm request: %w", err))
		return
	}
	if _, err := ParseArcs(req.Arc); err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
	}
	resp := warmResponse{}
	for _, peer := range req.Peers {
		n, err := wk.pullSnapshot(r.Context(), peer, req.Arc)
		if err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", peer, err))
			continue
		}
		resp.Peers++
		resp.Installed += n
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(resp)
}

// pullSnapshot fetches one peer's arc-filtered snapshot and installs
// it.
func (wk *Worker) pullSnapshot(ctx context.Context, peer, arc string) (int, error) {
	u := peer + SnapshotPath
	if arc != "" {
		u += "?arc=" + url.QueryEscape(arc)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := wk.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("peer answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	return wk.eng.RestoreCache(data)
}

// workerError answers a pre-stream failure as the same JSON error
// envelope the ordinary serving surface uses.
func workerError(w http.ResponseWriter, status int, err error) {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(map[string]string{"error": err.Error()})
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
