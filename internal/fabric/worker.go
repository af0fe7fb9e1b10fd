package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

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

// maxPointsBody bounds a points request: the client's spec, which the
// coordinator accepts up to 1 MiB, plus an index list of at most
// repro.MaxCampaignPoints entries (about 50 KB).
const maxPointsBody = 2 << 20

// maxSnapshotBody bounds the snapshot a warm-join POST carries: 64 MiB,
// about 122,000 suite-cache entries at about 546 B each (64 seconds
// values, a label, a fingerprint and the key fields). A longer body is
// a 400 and nothing of it is installed. Both handlers sit on the
// daemon's public listener, so neither reads an unbounded body.
const maxSnapshotBody = 64 << 20

// Worker serves the shard-scoped campaign API. It wraps the same
// engine the node's ordinary serving surface uses, so shard points
// memoize into — and warm-restart from — the one suite cache. A worker
// only answers requests; it dials nothing.
type Worker struct {
	eng *repro.Engine
}

// NewWorker wraps an engine as a shard worker.
func NewWorker(eng *repro.Engine) *Worker {
	return &Worker{eng: eng}
}

// ServeHTTP answers POST /v1/fabric/points, streaming one
// length-prefixed frame per requested point, in request order (not
// grid order — the coordinator owns ordering), each written as soon as
// the point and every point requested before it are evaluated. The
// worker never flushes: frames batch in net/http's buffer. Spec
// and index validation (CampaignSpec.CheckPoints: in range, no
// duplicates, and at least one point) happen before the first frame,
// so protocol errors are clean JSON with a real status code; a failure
// after streaming starts tears the stream, which the coordinator
// treats like a dead worker.
func (wk *Worker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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
	spec, err := repro.CampaignSpecFromJSON(req.Spec, nil)
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
	var buf []byte
	err = wk.eng.CampaignPoints(spec, req.Points, func(p repro.CampaignPoint) (err error) {
		if buf, err = appendPoint(buf[:0], p); err != nil {
			return err
		}
		return writeFrame(w, buf)
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
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
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

// warmResponse reports a warm-join: the entries the snapshot installed
// into the cache (already-cached keys are skipped).
type warmResponse struct {
	Installed int `json:"installed"`
}

// ServeWarm answers POST /v1/fabric/warm, whose body is one peer's
// owner-filtered snapshot as the coordinator relays it, by installing
// its entries into the worker's own suite cache. The restore is
// all-or-nothing: a body that does not decode, or runs (or is declared)
// past maxSnapshotBody, is a 400 and installs nothing; the buffer grows
// with the bytes that arrive, not with the declared length. A worker
// that could not warm evaluates its shard cold, bit-identically.
func (wk *Worker) ServeWarm(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > maxSnapshotBody {
		workerError(w, http.StatusBadRequest, fmt.Errorf("warm snapshot too large: %d bytes declared, the bound is %d", r.ContentLength, maxSnapshotBody))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("reading warm snapshot: %w", err))
		return
	}
	n, err := wk.eng.RestoreCache(data)
	if err != nil {
		workerError(w, http.StatusBadRequest, fmt.Errorf("restoring warm snapshot: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(warmResponse{Installed: n})
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
