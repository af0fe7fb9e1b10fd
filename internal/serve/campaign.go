package serve

// POST /v1/campaign — the multi-axis what-if surface over HTTP. The
// request body is the JSON campaign spec (repro.CampaignSpecFromJSON;
// schema in docs/EXPERIMENTS.md): registry labels and/or inline machine
// specs, swept axes, and software-config lists. Responses negotiate
// like the sweep endpoint — text, CSV, binary or a JSON envelope —
// plus a streaming NDJSON form (?format=ndjson or Accept:
// application/x-ndjson) that emits one line per grid point, in grid
// order, as soon as the point and its predecessors finish, then a
// terminal summary line.
//
// Determinism makes all five forms cacheable: the full rendered body —
// the NDJSON form included, since grid order is fixed — is stored in
// the render cache under the spec's content key (CampaignSpec.Key: the
// bases' fingerprints, the exact bit patterns of every axis value, the
// software lists), so a repeat campaign costs no model time and serves
// byte-identical responses. Errors split the usual way:
// a malformed or invalid spec is a 400, an unknown registry label a
// 404, and both are decided before any evaluation.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"repro"
	"repro/internal/fabric"
	"repro/internal/par"
)

// campaignJSON is the non-streaming JSON envelope; Output carries the
// text or CSV rendering verbatim, like the sweep envelope.
type campaignJSON struct {
	Title  string `json:"title"`
	Points int    `json:"points"`
	Format string `json:"format"`
	Output string `json:"output"`
}

// campaignSummaryJSON is the terminal NDJSON line.
type campaignSummaryJSON struct {
	Summary struct {
		Title       string         `json:"title"`
		Points      int            `json:"points"`
		Ranked      []int          `json:"ranked"`
		BestByClass []campaignBest `json:"best_by_class"`
		Pareto      []int          `json:"pareto"`
	} `json:"summary"`
}

type campaignBest struct {
	Class string `json:"class"`
	Point int    `json:"point"`
}

func campaignSummaryLine(res repro.CampaignResult) campaignSummaryJSON {
	var out campaignSummaryJSON
	out.Summary.Title = res.Title
	out.Summary.Points = len(res.Points)
	out.Summary.Ranked = res.Ranked
	out.Summary.Pareto = res.Pareto
	for _, class := range repro.Classes() {
		if i, ok := res.BestByClass[class]; ok {
			out.Summary.BestByClass = append(out.Summary.BestByClass,
				campaignBest{Class: class.String(), Point: i})
		}
	}
	return out
}

// handleCampaign serves POST /v1/campaign.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	format, err := negotiateStream(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	// Spec errors are the client's and split 400-vs-404 on whether the
	// spec was invalid or merely named a machine the registry lacks —
	// decided here, before any evaluation. Errors after this point are
	// the engine's own.
	spec, err := repro.CampaignSpecFromJSON(data, s.reg)
	if err != nil {
		var unknown *repro.UnknownMachineError
		if errors.As(err, &unknown) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.coordErr != nil {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("coordinator misconfigured: %w", s.coordErr))
		return
	}
	// One expansion for everything downstream (metrics, the JSON
	// envelope): the spec validated above, so Points is just the count.
	points := spec.Points()
	if format == formatNDJSON {
		s.campaignNDJSON(w, r, spec, data, points)
		return
	}
	ent, err := s.rc.get(campaignKey(spec, format), func() ([]byte, string, error) {
		res, err := s.runCampaign(r, spec, data, nil)
		if err != nil {
			return nil, "", err
		}
		return renderBody(format,
			func(csv bool) (string, error) { return repro.FormatCampaignResult(res, csv), nil },
			func() ([]byte, error) { return repro.CampaignResultWire(res) },
			func(out string) any {
				return campaignJSON{Title: spec.Title(), Points: points, Format: "text", Output: out}
			})
	})
	if err != nil {
		s.writeCampaignError(w, err)
		return
	}
	s.met.addCampaign(points, false)
	serveRendered(w, r, ent)
}

// runCampaign evaluates a campaign through whichever tier the server
// runs on: the local engine, or — under Options.Coordinate — the
// distributed fabric, forwarding the client's spec bytes verbatim to
// the workers. Both paths call emit once per point in grid order and
// return the same assembled result, so everything rendered downstream
// is byte-identical across tiers.
func (s *Server) runCampaign(r *http.Request, spec repro.CampaignSpec, raw []byte, emit func(repro.CampaignPoint) error) (repro.CampaignResult, error) {
	if s.coord != nil {
		return s.coord.Run(r.Context(), raw, emit)
	}
	return s.eng.CampaignStream(spec, emit)
}

// writeCampaignError answers a campaign evaluation failure. A fleet
// with no live workers is an upstream failure: 502 with a Retry-After
// hint (the prober revives workers on their next healthy probe, so the
// condition is expected to clear) and its own fleet-down counter — an
// operator alerting on fleet outages should not have to parse generic
// endpoint error rates. An evaluation panic is a fixed "internal error"
// 500 (see recordPanic). Everything else stays a plain 500.
func (s *Server) writeCampaignError(w http.ResponseWriter, err error) {
	var down *fabric.AllWorkersDownError
	if errors.As(err, &down) {
		s.met.addFleetDown()
		w.Header().Set("Retry-After", fleetDownRetryAfter)
		writeError(w, http.StatusBadGateway, err)
		return
	}
	if s.recordPanic(err) {
		err = errInternal
	}
	writeError(w, http.StatusInternalServerError, err)
}

// errInternal is all a client learns of an evaluation panic.
var errInternal = errors.New("internal error")

// recordPanic reports whether err carries a recovered evaluation panic
// (*par.PanicError). If so it logs the panic value and stack and counts
// it in sg2042d_panics_total: they are for the operator, not the
// client.
func (s *Server) recordPanic(err error) bool {
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		return false
	}
	s.met.addPanic()
	log.Printf("serve: campaign evaluation panicked: %v\n%s", pe.Value, pe.Stack)
	return true
}

// fleetDownRetryAfter is the Retry-After value (in seconds) sent with
// fleet-down 502s — a couple of probe intervals, long enough for a
// bounced worker to be probed back in.
const fleetDownRetryAfter = "5"

// campaignNDJSON serves the streaming form. The first request for a
// grid renders live — each point line is written as the engine
// finishes it, in grid order — while teeing the bytes into the
// render cache; repeat requests (and concurrent requests that lost the
// singleflight race) serve the cached body, byte-identical to the
// stream.
func (s *Server) campaignNDJSON(w http.ResponseWriter, r *http.Request, spec repro.CampaignSpec, raw []byte, points int) {
	streamed := false
	ent, err := s.rc.get(campaignKey(spec, formatNDJSON), func() ([]byte, string, error) {
		streamed = true
		body, err := s.streamCampaign(w, r, spec, raw)
		return body, "application/x-ndjson", err
	})
	if streamed {
		// The response — or, on a mid-stream engine failure, a terminal
		// error line — has already been written.
		if err == nil {
			s.met.addCampaign(points, true)
		}
		return
	}
	if err != nil {
		s.writeCampaignError(w, err)
		return
	}
	s.met.addCampaign(points, true)
	// The replay is an ordinary cached body: ETag, gzip and Vary come
	// from the shared path (conditional 304s stay GET/HEAD-only).
	serveRendered(w, r, ent)
}

// streamCampaign writes the live NDJSON stream and returns the complete
// body for the render cache. Under Options.Coordinate the points come
// off the fabric — evaluated across the fleet, emitted here in grid
// order — and the lines are byte-identical to the local stream. Point
// lines go through the pooled append encoder (ndjson.go) — byte-for-byte
// what json.Encoder produced, without a reflection walk and interface
// boxing per line — while the one-off summary line stays on
// encoding/json.
//
// The first point line is flushed as soon as it is written, so a client
// sees the head of the grid without waiting for net/http's buffers to
// fill; later lines leave in transport-sized batches. The flush goes
// through http.NewResponseController, which unwraps the metrics
// statusWriter. Flushing every line measured slower on the fabric tier
// (docs/PERFORMANCE.md, "Time to first point").
func (s *Server) streamCampaign(w http.ResponseWriter, r *http.Request, spec repro.CampaignSpec, raw []byte) ([]byte, error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	var buf bytes.Buffer
	line := lineBufPool.Get().(*[]byte)
	defer func() { *line = (*line)[:0]; lineBufPool.Put(line) }()
	res, err := s.runCampaign(r, spec, raw, func(p repro.CampaignPoint) error {
		b, err := appendCampaignPoint((*line)[:0], p)
		if err != nil {
			return err
		}
		*line = b[:0]
		if _, err := w.Write(b); err != nil {
			return err
		}
		if buf.Len() == 0 {
			// The stream is underway either way; a writer that cannot
			// flush (ErrNotSupported) just batches the head too.
			_ = http.NewResponseController(w).Flush()
		}
		buf.Write(b)
		return nil
	})
	if err != nil {
		if buf.Len() == 0 {
			// Nothing has streamed, so the status line is still ours:
			// answer a real error (502 for a dead fleet) instead of an
			// empty 200 stream.
			s.writeCampaignError(w, err)
			return nil, err
		}
		// The stream is already underway with a 200 status; a terminal
		// error line is the only way left to tell the client the grid
		// is truncated. The body is not cached (the fill error path).
		msg := err
		if s.recordPanic(err) {
			msg = errInternal
		}
		json.NewEncoder(w).Encode(struct {
			Error string `json:"error"`
		}{msg.Error()})
		return nil, err
	}
	if err := json.NewEncoder(io.MultiWriter(w, &buf)).Encode(campaignSummaryLine(res)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// campaignKey is a campaign's render-cache key: the spec's content key
// (every base's full fingerprint, so an inline spec with one tweaked
// field misses, and the exact bit patterns of every axis value) in one
// format.
func campaignKey(spec repro.CampaignSpec, f format) renderKey {
	return renderKey{kind: "campaign", variant: spec.Key(), format: f}
}
