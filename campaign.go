package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Multi-axis what-if campaigns: several base machines x several swept
// hardware axes (cross-product) x several software configurations, all
// evaluated through the same config-keyed memoized cache the paper
// experiments and single-axis sweeps use. Results come back as ranked
// tables — speedup vs base, best configuration per kernel class, and a
// Pareto front over cores x full-suite time — and every grid point that
// matches an already-memoized sweep point reuses its cache entry.

// CampaignAxis is one swept hardware axis of a campaign (the axis plus
// its values); a campaign grids over the cross-product of all axes.
type CampaignAxis = core.AxisValues

// CampaignSpec selects a campaign: bases, axes, and the software
// configurations (threads, placement, precision) every hardware point
// runs under. Zero-value software lists mean full occupancy, block
// placement, FP32 — like SweepSpec; the JSON boundary (the CLI's
// -campaign file and POST /v1/campaign) defaults precision to FP64
// explicitly.
type CampaignSpec = core.CampaignSpec

// CampaignPoint is one evaluated grid point; CampaignCell is one of its
// per-class summaries.
type (
	CampaignPoint = core.CampaignPoint
	CampaignCell  = core.CampaignCell
)

// CampaignResult is an evaluated campaign: points in grid order plus
// the ranked summaries (Ranked, BestByClass, Pareto).
type CampaignResult = core.CampaignResult

// MaxCampaignPoints bounds the expanded grid.
const MaxCampaignPoints = core.MaxCampaignPoints

// Campaign evaluates a multi-axis campaign on the engine's shared
// study. Points fan out over the engine's worker pool and memoize in
// the same config-keyed cache experiments and sweeps use, so serial,
// parallel and cached campaigns are bit-identical.
func (e *Engine) Campaign(spec CampaignSpec) (CampaignResult, error) {
	return e.st.Campaign(spec, nil)
}

// CampaignStream is Campaign with a streaming hook: emit is called once
// per point, in grid order, as soon as the point and all its
// predecessors are evaluated — the NDJSON surface of POST /v1/campaign
// hangs off it. An emit error aborts the campaign.
func (e *Engine) CampaignStream(spec CampaignSpec, emit func(CampaignPoint) error) (CampaignResult, error) {
	return e.st.Campaign(spec, emit)
}

// CampaignFormat runs Campaign and renders it as text (csv=false) or
// CSV — the exact bytes cmd/sg2042sim -campaign prints and
// POST /v1/campaign serves.
func (e *Engine) CampaignFormat(spec CampaignSpec, csv bool) (string, error) {
	res, err := e.Campaign(spec)
	if err != nil {
		return "", err
	}
	return FormatCampaignResult(res, csv), nil
}

// FormatCampaignResult renders an already-evaluated campaign as text or
// CSV — the same bytes CampaignFormat produces. The distributed
// coordinator (internal/fabric) uses it to render a result assembled
// from worker shards; because the points are bit-identical to a local
// evaluation, so is the rendering.
func FormatCampaignResult(res CampaignResult, csv bool) string {
	return renderText(res, csv)
}

// CampaignPoints evaluates only the selected grid points of spec (by
// index into the expanded grid; CampaignSpec.CheckPoints is the
// validation it applies), calling emit once per point on the calling
// goroutine in request order — the shard-scoped API the distributed
// fabric's workers serve. It runs the same evaluation loop as
// Campaign, so each point is bit-identical to the same point of a full
// Campaign: same memoized cache, same configuration-seeded noise.
func (e *Engine) CampaignPoints(spec CampaignSpec, indices []int, emit func(CampaignPoint) error) error {
	return e.st.CampaignPoints(spec, indices, emit)
}

// AssembleCampaignResult builds a CampaignResult from the full grid of
// already-evaluated points (point i at index i) — the coordinator's
// final step after gathering shards. The ranked summaries are computed
// exactly as Campaign computes them.
func AssembleCampaignResult(spec CampaignSpec, points []CampaignPoint) (CampaignResult, error) {
	return core.AssembleCampaign(spec, points)
}

// RunCampaign is the one-shot form of Engine.CampaignFormat: a fresh
// engine, one campaign, rendered per opts.CSV.
func RunCampaign(spec CampaignSpec, opts Options) (string, error) {
	return NewEngine(opts).CampaignFormat(spec, opts.CSV)
}

// ParsePrecision maps a token onto a precision: "f32"/"fp32" or
// "f64"/"fp64", case-insensitively; empty means the CLI/HTTP default,
// FP64.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "f64", "fp64":
		return F64, nil
	case "f32", "fp32":
		return F32, nil
	}
	return F64, fmt.Errorf("unknown precision %q (want f32 or f64)", s)
}

// ParsePlacement maps a token onto a placement policy: "block",
// "cyclic" or "cluster", case-insensitively; empty means block.
func ParsePlacement(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "block":
		return Block, nil
	case "cyclic":
		return CyclicNUMA, nil
	case "cluster":
		return ClusterCyclic, nil
	}
	return Block, fmt.Errorf("unknown placement %q (want block, cyclic or cluster)", s)
}

// campaignJSONSpec is the serialized campaign spec the CLI's -campaign
// file and POST /v1/campaign accept. Machines come from the registry by
// label and/or inline as full machine specs (the GET /v1/machines/{name}
// form); the software lists default to full occupancy, block placement
// and FP64. The schema is documented in docs/EXPERIMENTS.md.
type campaignJSONSpec struct {
	// Machines lists registry labels ("SG2042", "SG2044").
	Machines []string `json:"machines,omitempty"`
	// Specs lists inline custom machines.
	Specs []json.RawMessage `json:"specs,omitempty"`
	// Axes lists the swept hardware axes in application order.
	Axes []struct {
		Axis   string    `json:"axis"`
		Values []float64 `json:"values"`
	} `json:"axes,omitempty"`
	// Threads lists thread counts (0 = full occupancy); default [0].
	Threads []int `json:"threads,omitempty"`
	// Placements lists "block", "cyclic", "cluster"; default ["block"].
	Placements []string `json:"placements,omitempty"`
	// Precisions lists "f32"/"f64"; default ["f64"].
	Precisions []string `json:"precisions,omitempty"`
}

// CampaignSpecFromJSON decodes and validates a JSON campaign spec,
// resolving registry labels against reg (nil means the default
// registry). Unknown fields are rejected; an unresolvable machine label
// yields an *UnknownMachineError; every other problem — malformed JSON,
// unknown axis or token, an underivable grid — is an ordinary
// validation error. The returned spec has passed CampaignSpec.Validate.
func CampaignSpecFromJSON(data []byte, reg *MachineRegistry) (CampaignSpec, error) {
	if reg == nil {
		reg = DefaultMachineRegistry()
	}
	var raw campaignJSONSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return CampaignSpec{}, fmt.Errorf("decoding campaign spec: %w", err)
	}
	var spec CampaignSpec
	if len(raw.Machines) == 0 && len(raw.Specs) == 0 {
		return CampaignSpec{}, fmt.Errorf(`campaign needs base machines: pass "machines" (registry labels) and/or "specs" (inline machines)`)
	}
	for _, label := range raw.Machines {
		m, err := reg.Resolve(label)
		if err != nil {
			return CampaignSpec{}, err
		}
		spec.Bases = append(spec.Bases, m)
	}
	for _, inline := range raw.Specs {
		m, err := MachineFromJSON(inline)
		if err != nil {
			return CampaignSpec{}, err
		}
		spec.Bases = append(spec.Bases, m)
	}
	for _, ax := range raw.Axes {
		spec.Axes = append(spec.Axes, CampaignAxis{
			Axis:   SweepAxis(strings.ToLower(strings.TrimSpace(ax.Axis))),
			Values: ax.Values,
		})
	}
	spec.Threads = raw.Threads
	for _, tok := range raw.Placements {
		pol, err := ParsePlacement(tok)
		if err != nil {
			return CampaignSpec{}, err
		}
		spec.Placements = append(spec.Placements, pol)
	}
	precs := raw.Precisions
	if len(precs) == 0 {
		precs = []string{"f64"} // the explicit CLI/HTTP default
	}
	for _, tok := range precs {
		p, err := ParsePrecision(tok)
		if err != nil {
			return CampaignSpec{}, err
		}
		spec.Precs = append(spec.Precs, p)
	}
	if err := spec.Validate(); err != nil {
		return CampaignSpec{}, err
	}
	return spec, nil
}
