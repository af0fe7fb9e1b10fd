package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro"
)

// machineSummary is one row of GET /v1/machines: enough to pick a
// machine without downloading its full spec.
type machineSummary struct {
	Label       string  `json:"label"`
	Name        string  `json:"name"`
	Cores       int     `json:"cores"`
	ClockGHz    float64 `json:"clock_ghz"`
	NUMARegions int     `json:"numa_regions"`
	VectorISA   string  `json:"vector_isa"`
	VectorBits  int     `json:"vector_bits,omitempty"`
	Sockets     int     `json:"sockets,omitempty"`
	Nodes       int     `json:"nodes,omitempty"`
}

// machineBodies are the registry's JSON renderings: the listing and
// every machine's spec, keyed by canonical label. The registry is
// immutable, so they are rendered once, on first request.
type machineBodies struct {
	list  []byte
	specs map[string][]byte
}

func renderMachines(reg *repro.MachineRegistry) (machineBodies, error) {
	ms := reg.Machines()
	out := make([]machineSummary, len(ms))
	b := machineBodies{specs: make(map[string][]byte, len(ms))}
	for i, m := range ms {
		out[i] = machineSummary{
			Label:       m.Label,
			Name:        m.Name,
			Cores:       m.Cores,
			ClockGHz:    m.ClockHz / 1e9,
			NUMARegions: m.NUMARegions,
			VectorISA:   m.Vector.ISA.Token(),
			VectorBits:  m.Vector.WidthBits,
			Sockets:     m.Sockets,
			Nodes:       m.Nodes,
		}
		spec, err := repro.MachineJSON(m)
		if err != nil {
			return b, err
		}
		b.specs[m.Label] = spec
	}
	var err error
	b.list, err = marshalJSONBody(struct {
		Machines []machineSummary `json:"machines"`
	}{out})
	return b, err
}

// handleMachines serves GET /v1/machines: every registered machine —
// the paper's seven presets plus the SG2044 and the dual-socket
// SG2042x2 — summarised, in registration order.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	b, err := s.machines()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(b.list)
}

// handleMachine serves GET /v1/machines/{name}: the machine's full
// JSON spec — the exact form POST /v1/sweep's "spec" field and
// repro.MachineFromJSON accept, so Get-modify-sweep round trips.
func (s *Server) handleMachine(w http.ResponseWriter, r *http.Request) {
	label, err := s.reg.Label(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	b, err := s.machines()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(b.specs[label])
}

// sweepRequest is the body of POST /v1/sweep. Exactly one of Machine
// (a registry label) and Spec (an inline JSON machine, the
// GET /v1/machines/{name} form) selects the base.
type sweepRequest struct {
	// Machine is the registry label of the base machine ("SG2042").
	Machine string `json:"machine,omitempty"`
	// Spec is an inline custom machine spec.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Axis is the hardware axis to vary: cores, clock, vector, numa,
	// sockets or nodes.
	Axis string `json:"axis"`
	// Values are the axis values (clock in GHz; the rest positive
	// integers).
	Values []float64 `json:"values"`
	// Threads per point, clamped to each variant's cores; 0 = full
	// occupancy.
	Threads int `json:"threads,omitempty"`
	// Prec is "f64" (default) or "f32".
	Prec string `json:"prec,omitempty"`
	// Placement is "block" (default), "cyclic" or "cluster".
	Placement string `json:"placement,omitempty"`
}

// sweepJSON is the JSON envelope of a sweep response; Output carries
// the text or CSV rendering verbatim.
type sweepJSON struct {
	Machine string `json:"machine"`
	Axis    string `json:"axis"`
	Title   string `json:"title"`
	Format  string `json:"format"`
	Output  string `json:"output"`
}

// handleSweep serves POST /v1/sweep: a what-if hardware sweep of one
// axis of a base machine, fanned out over the engine's worker pool.
// The response format is negotiated like the experiment endpoints
// (?format=text|csv|json|binary or the Accept header); text and CSV bodies
// are byte-identical to cmd/sg2042sim -sweep output for the same
// request. Bad parameters are 400s, an unknown machine label is a 404,
// and every point's suite evaluation coalesces on the engine's shared
// cache like any other request.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	format, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req sweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}

	var base *repro.Machine
	switch {
	case req.Machine != "" && len(req.Spec) > 0:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf(`pass "machine" (a registry label) or "spec" (an inline machine), not both`))
		return
	case req.Machine != "":
		m, err := s.reg.Resolve(req.Machine)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		base = m
	case len(req.Spec) > 0:
		m, err := repro.MachineFromJSON(req.Spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		base = m
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf(`sweep needs a base: pass {"machine": "SG2042", ...} or an inline "spec"`))
		return
	}

	p, err := repro.ParsePrecision(req.Prec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pol, err := repro.ParsePlacement(req.Placement)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := repro.SweepSpec{
		Base: base, Axis: repro.SweepAxis(strings.ToLower(strings.TrimSpace(req.Axis))),
		Values: req.Values, Threads: req.Threads, Placement: pol, Prec: p,
	}
	// Validation errors (unknown axis, bad values, underivable variants)
	// are the client's: fail 400 before any evaluation. Errors after
	// this point are the engine's own.
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Sweeps are deterministic in their canonicalized spec, so the
	// rendered body is cacheable like any GET: the spec's content key
	// folds in the base machine's full fingerprint (an inline custom
	// spec with one tweaked field must miss) and the exact bit patterns
	// of the axis values.
	ent, err := s.rc.get(renderKey{kind: "sweep", variant: spec.Key(), format: format}, func() ([]byte, string, error) {
		return renderBody(format,
			func(csv bool) (string, error) { return s.eng.SweepFormat(spec, csv) },
			func() ([]byte, error) { return s.eng.SweepBinary(spec) },
			func(out string) any {
				return sweepJSON{Machine: base.Label, Axis: string(spec.Axis), Title: spec.Title(), Format: "text", Output: out}
			})
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	serveRendered(w, r, ent)
}
