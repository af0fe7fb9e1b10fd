package core

// What-if hardware sweeps. The paper's experiments hold the hardware
// fixed and vary the software knobs (threads, placement, precision,
// compiler); a sweep does the opposite — it holds one configuration and
// varies a single hardware axis of a base machine, asking the questions
// the paper's follow-ups answer in silicon (the SG2044's wider memory
// system, the multi-socket study's core counts). A sweep result is an
// ordinary Figure — one series per swept value, each class summarised
// as a ratio against the unmodified base machine — so the existing
// text/CSV renderers and the determinism contract apply unchanged, and
// every point's suite evaluation lands in the same config-keyed cache
// the paper experiments use. Execution is the campaign's: a sweep
// compiles to the one-axis campaign it is (campaign.go, plan.go) and
// only its checks, title and Figure shape are its own.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
)

// SweepAxis names the hardware axis a sweep varies.
type SweepAxis string

const (
	// SweepCores varies the core count (values are counts).
	SweepCores SweepAxis = "cores"
	// SweepClock varies the core clock (values are GHz).
	SweepClock SweepAxis = "clock"
	// SweepVector varies the vector register width (values are bits).
	SweepVector SweepAxis = "vector"
	// SweepNUMA varies the NUMA region count, conserving total memory
	// controllers (values are region counts).
	SweepNUMA SweepAxis = "numa"
	// SweepSockets varies the sockets per node, replicating the base's
	// per-socket structure (values are socket counts).
	SweepSockets SweepAxis = "sockets"
	// SweepNodes varies the fused node count, replicating the base's
	// per-node structure across an inter-node link (values are node
	// counts).
	SweepNodes SweepAxis = "nodes"
)

// SweepAxes lists every axis, in presentation order.
var SweepAxes = []SweepAxis{SweepCores, SweepClock, SweepVector, SweepNUMA, SweepSockets, SweepNodes}

// MaxSweepPoints bounds a single sweep so a network client cannot
// request an unbounded fan-out.
const MaxSweepPoints = 64

// SweepSpec selects a what-if sweep: one base machine, one axis, the
// values to sweep it across, and the fixed software configuration every
// point runs under.
type SweepSpec struct {
	// Base is the machine to derive variants from. It may be a preset
	// from the registry or a fully custom description.
	Base *machine.Machine
	// Axis is the hardware axis to vary.
	Axis SweepAxis
	// Values are the axis values, in presentation order. Cores, vector
	// and numa values must be positive integers; clock values are GHz.
	Values []float64
	// Threads is the thread count every point runs with, clamped to
	// each variant's core count; 0 means full occupancy (every core of
	// each variant) — the setting under which core-count and NUMA
	// what-ifs are meaningful.
	Threads int
	// Placement is the thread placement policy (default Block).
	Placement placement.Policy
	// Prec is the floating-point precision; the zero value is FP32 (the
	// paper's multithreaded default). The CLI and HTTP surfaces default
	// to FP64 explicitly.
	Prec prec.Precision
}

// Validate checks the spec and runs every derivation, so a bad request
// fails before any suite evaluation: nil base, unknown axis, empty or
// oversized value lists, non-integral counts, unknown placements or
// precisions, and derivations the base cannot support (widening a
// machine with no vector unit, splitting controllers unevenly across
// NUMA regions).
func (s SweepSpec) Validate() error {
	_, err := s.plan()
	return err
}

// plan runs the sweep's own checks, then compiles the sweep as the
// one-axis campaign it is. The plan is memoized, so validating and then
// evaluating a spec derives its machines once.
func (s SweepSpec) plan() (*campaignPlan, error) {
	if s.Base == nil {
		return nil, fmt.Errorf("core: sweep has no base machine")
	}
	if err := s.Base.Validate(); err != nil {
		return nil, err
	}
	switch s.Axis {
	case SweepCores, SweepClock, SweepVector, SweepNUMA, SweepSockets, SweepNodes:
	default:
		return nil, fmt.Errorf("core: unknown sweep axis %q (want one of %s)",
			s.Axis, joinAxes())
	}
	if len(s.Values) == 0 {
		return nil, fmt.Errorf("core: sweep over %s has no values", s.Axis)
	}
	if len(s.Values) > MaxSweepPoints {
		return nil, fmt.Errorf("core: sweep has %d points, max %d", len(s.Values), MaxSweepPoints)
	}
	if s.Threads < 0 {
		return nil, fmt.Errorf("core: sweep threads %d < 0", s.Threads)
	}
	return planFor(s.campaign())
}

// campaign is the one-axis campaign the sweep compiles to.
func (s SweepSpec) campaign() CampaignSpec {
	return CampaignSpec{
		Bases:      []*machine.Machine{s.Base},
		Axes:       []AxisValues{{Axis: s.Axis, Values: s.Values}},
		Threads:    []int{s.Threads},
		Placements: []placement.Policy{s.Placement},
		Precs:      []prec.Precision{s.Prec},
	}
}

// Key is the content key of the one-axis campaign the sweep compiles
// to (CampaignSpec.Key): it covers every field of the spec, so two
// sweeps share it only when they render identical bytes.
func (s SweepSpec) Key() string { return s.campaign().Key() }

func joinAxes() string {
	names := make([]string, len(SweepAxes))
	for i, a := range SweepAxes {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}

// deriveAxis applies one axis value to a machine — the one derivation
// path of the campaign planner, and so of sweeps too.
func deriveAxis(m *machine.Machine, axis SweepAxis, v float64) (*machine.Machine, error) {
	switch axis {
	case SweepClock:
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("core: sweep axis %s needs positive finite GHz values, got %v", axis, v)
		}
		return m.WithClock(v * 1e9)
	case SweepCores, SweepVector, SweepNUMA, SweepSockets, SweepNodes:
		if v != math.Trunc(v) || v <= 0 {
			return nil, fmt.Errorf("core: sweep axis %s needs positive integer values, got %v", axis, v)
		}
		n := int(v)
		switch axis {
		case SweepCores:
			return m.WithCores(n)
		case SweepVector:
			return m.WithVectorBits(n)
		case SweepSockets:
			return m.WithSockets(n)
		case SweepNodes:
			return m.WithNodes(n)
		default:
			return m.WithNUMARegions(n)
		}
	}
	return nil, fmt.Errorf("core: unknown sweep axis %q (want one of %s)", axis, joinAxes())
}

// threadsPhrase renders a thread count for headings ("1 thread",
// "64 threads").
func threadsPhrase(n int) string {
	if n == 1 {
		return "1 thread"
	}
	return fmt.Sprintf("%d threads", n)
}

// Title renders the sweep's deterministic heading: base machine, axis,
// values, and the fixed configuration.
func (s SweepSpec) Title() string {
	vals := make([]string, len(s.Values))
	for i, v := range s.Values {
		vals[i] = fmt.Sprintf("%g", v)
	}
	threads := "full occupancy"
	if s.Threads > 0 {
		threads = threadsPhrase(s.Threads)
	}
	return fmt.Sprintf("Sweep: %s over %s = %s (%v, %s placement, %s)",
		s.Base.Label, s.Axis, strings.Join(vals, ", "), s.Prec, s.Placement, threads)
}

// MachineSweep evaluates a what-if sweep: the full suite on the base
// machine and on each derived variant, each point's per-kernel ratios
// against the base summarised per class. The sweep runs as a one-axis
// campaign through the campaign evaluation loop, so points fan out over
// the study's worker pool and every evaluation is memoized under its
// full machine fingerprint: serial, parallel and cached runs are
// bit-identical and repeated sweeps over warm configurations cost no
// model time.
func (st *Study) MachineSweep(spec SweepSpec) (Figure, error) {
	plan, err := spec.plan()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Title:    spec.Title(),
		Baseline: spec.Base.Label + ", " + threadsPhrase(resolveThreads(spec.Threads, spec.Base.Cores)),
		Series:   make([]Series, 0, plan.n),
	}
	err = st.evaluate(plan, gridOrder(plan.n), func(p CampaignPoint) error {
		byClass := make(map[kernels.Class]stats.Summary, len(p.ByClass))
		for c, cell := range p.ByClass {
			byClass[c] = cell.Ratio
		}
		fig.Series = append(fig.Series, Series{Label: p.Machine, ByClass: byClass})
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	return fig, nil
}
