package repro

import "repro/internal/core"

// What-if hardware sweeps: hold the software configuration fixed and
// vary one hardware axis of a base machine — core count, clock, vector
// width, NUMA layout, sockets per node, or fused node count. A sweep
// renders as an ordinary Figure (one series per swept value, ratios
// against the unmodified base), so the text/CSV renderers and the
// determinism contract apply unchanged.

// SweepAxis names the hardware axis a sweep varies.
type SweepAxis = core.SweepAxis

// Sweep axes.
const (
	// SweepCores varies the core count.
	SweepCores = core.SweepCores
	// SweepClock varies the core clock (values in GHz).
	SweepClock = core.SweepClock
	// SweepVector varies the vector register width in bits.
	SweepVector = core.SweepVector
	// SweepNUMA varies the NUMA region count, conserving total memory
	// controllers.
	SweepNUMA = core.SweepNUMA
	// SweepSockets varies the sockets per node, replicating the base's
	// per-socket structure across a coherent inter-socket link.
	SweepSockets = core.SweepSockets
	// SweepNodes varies the fused node count, replicating the base's
	// per-node structure across an inter-node link — the axis strong
	// and weak scaling walkthroughs sweep past 64 cores.
	SweepNodes = core.SweepNodes
)

// SweepAxes lists every sweep axis in presentation order.
func SweepAxes() []SweepAxis { return append([]SweepAxis(nil), core.SweepAxes...) }

// SweepSpec selects a what-if sweep: base machine, axis, values, and
// the fixed software configuration (threads, placement, precision)
// every point runs under. The zero values mean full occupancy, block
// placement, FP32 (the paper's multithreaded default); the CLI and
// HTTP surfaces default to FP64 explicitly.
type SweepSpec = core.SweepSpec

// Sweep evaluates a what-if sweep on the engine's shared study: the
// suite on the base machine and on each derived variant, summarised
// per class as ratios against the base. Points fan out over the
// engine's worker pool and memoize in the same config-keyed cache the
// experiments use, so serial, parallel and cached sweeps are
// bit-identical.
func (e *Engine) Sweep(spec SweepSpec) (Figure, error) {
	return e.st.MachineSweep(spec)
}

// SweepFormat runs Sweep and renders it as text (csv=false) or CSV —
// the exact bytes cmd/sg2042sim -sweep prints and POST /v1/sweep
// serves.
func (e *Engine) SweepFormat(spec SweepSpec, csv bool) (string, error) {
	fig, err := e.Sweep(spec)
	if err != nil {
		return "", err
	}
	return renderText(fig, csv), nil
}

// RunSweep is the one-shot form of Engine.SweepFormat: a fresh engine,
// one sweep, rendered per opts.CSV.
func RunSweep(spec SweepSpec, opts Options) (string, error) {
	return NewEngine(opts).SweepFormat(spec, opts.CSV)
}
