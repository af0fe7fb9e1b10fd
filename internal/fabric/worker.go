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

// Request body bounds. A points request carries the client's spec,
// which the coordinator accepts up to 1 MiB, plus an index list of at
// most repro.MaxCampaignPoints entries (about 50 KB); a warm request
// names a few URLs. Both handlers sit on the daemon's public listener,
// so neither may read an unbounded body into memory.
const (
	maxPointsBody = 2 << 20
	maxWarmBody   = 1 << 20
)

// maxSnapshotBody bounds the snapshot a warm-join reads from one peer:
// 64 MiB, about 122,000 suite-cache entries at about 546 B each (64
// seconds values, a label, a fingerprint and the key fields). The peer
// URLs come from the warm request's body, so a peer's answer is read no
// further than this; a peer that sends more is a per-peer warm error
// and nothing of its answer is installed.
const maxSnapshotBody = 64 << 20

// Worker serves the shard-scoped campaign API. It wraps the same
// engine the node's ordinary serving surface uses, so shard points
// memoize into — and warm-restart from — the one suite cache.
type Worker struct {
	eng *repro.Engine
	reg *repro.MachineRegistry
	// client performs warm-join snapshot pulls from peers
	// (ServeWarm); tests may swap it.
	client *http.Client
	// maxSnapshot is the per-peer snapshot bound, maxSnapshotBody
	// unless a test shrinks it.
	maxSnapshot int64
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
		// A snapshot costs about 550 B per cache entry (210 KB for a
		// 384-configuration sweep); a bounded client keeps a hung peer
		// from wedging a warm-join.
		client:      &http.Client{Timeout: 30 * time.Second},
		maxSnapshot: maxSnapshotBody,
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPointsBody))
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

// ServeHealth answers the fabric readiness probe. A worker that can
// run this handler can serve shard traffic, so the answer is
// unconditionally 200 — warmth is a performance property, not a
// liveness one.
func (wk *Worker) ServeHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ServeSnapshot answers GET
// /v1/fabric/snapshot?owner=<url>&fleet=<url>&fleet=<url>...: the
// worker's suite-cache entries whose machine fingerprints owner wins
// over the full fleet (exclusions ignored), in core's snapshot layout.
// Without parameters the full cache is returned. The body is
// deterministic for a given cache state (entries sort by their encoded
// bytes), so two peers holding the same entries ship identical bytes.
func (wk *Worker) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		workerError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	q := r.URL.Query()
	keep, err := ownerFilter(q.Get("owner"), q["fleet"])
	if err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
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

// ownerFilter is the snapshot filter for the keys owner wins over
// fleet: nil (everything) when both are empty, an error when only one
// is given, when the fleet breaks NewRing's rules, or when owner is not
// in the fleet.
func ownerFilter(owner string, fleet []string) (func(uint64) bool, error) {
	if owner == "" && len(fleet) == 0 {
		return nil, nil
	}
	if owner == "" {
		return nil, fmt.Errorf("fabric: fleet given without an owner")
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("fabric: owner %q given without a fleet", owner)
	}
	ring, err := NewRing(fleet)
	if err != nil {
		return nil, err
	}
	i := ring.index(owner)
	if i < 0 {
		return nil, fmt.Errorf("fabric: owner %q is not in the fleet", owner)
	}
	return func(fp uint64) bool { return ring.next(fp, nil, -1) == i }, nil
}

// warmRequest is the body of POST /v1/fabric/warm: the peers to pull
// from, and the full fleet and owner (this worker) whose keys to warm.
type warmRequest struct {
	Peers []string `json:"peers"`
	Fleet []string `json:"fleet"`
	Owner string   `json:"owner"`
}

// warmResponse reports a warm-join pull: entries installed into the
// cache, peers successfully pulled, and per-peer failures (best
// effort — a dead peer costs warmth, not correctness).
type warmResponse struct {
	Installed int      `json:"installed"`
	Peers     int      `json:"peers"`
	Errors    []string `json:"errors,omitempty"`
}

// ServeWarm answers POST /v1/fabric/warm by pulling the owner's
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWarmBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("decoding warm request: %w", err))
		return
	}
	if _, err := ownerFilter(req.Owner, req.Fleet); err != nil {
		workerError(w, http.StatusBadRequest, err)
		return
	}
	resp := warmResponse{}
	for _, peer := range req.Peers {
		n, err := wk.pullSnapshot(r.Context(), peer, req.Owner, req.Fleet)
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

// pullSnapshot fetches one peer's owner-filtered snapshot, at most
// maxSnapshot bytes of it, and installs it.
func (wk *Worker) pullSnapshot(ctx context.Context, peer, owner string, fleet []string) (int, error) {
	u := peer + SnapshotPath
	if owner != "" {
		u += "?" + url.Values{"owner": {owner}, "fleet": fleet}.Encode()
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
	data, err := io.ReadAll(io.LimitReader(resp.Body, wk.maxSnapshot+1))
	if err != nil {
		return 0, err
	}
	if int64(len(data)) > wk.maxSnapshot {
		return 0, fmt.Errorf("peer snapshot exceeds %d bytes", wk.maxSnapshot)
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
