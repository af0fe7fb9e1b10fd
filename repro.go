// Package repro is the public API of the SG2042 benchmarking study — a
// Go reproduction of "Is RISC-V ready for HPC prime-time: Evaluating
// the 64-core Sophon SG2042 RISC-V CPU" (Brown, Jamieson, Lee, Wang;
// SC-W 2023, arXiv:2309.00381).
//
// The library contains:
//
//   - the complete 64-kernel RAJAPerf suite re-implemented in Go, runnable
//     on the host over a fork-join goroutine team (RunOnHost);
//   - parametric descriptions of the seven CPUs the paper evaluates and
//     an analytic performance model over them;
//   - models of the paper's three compilers (XuanTie GCC 8.4, Clang,
//     x86 GCC) and of the RVV v0.7.1/v1.0 split, including an executing
//     software vector ISA and the v1.0->v0.7.1 rollback translator;
//   - the study engine that regenerates every table and figure of the
//     paper's evaluation (RunExperiment / the Figure*/Table* helpers).
//
// The study engine is concurrent and memoized. RunExperiments fans a
// batch of experiments out over a bounded worker pool with first-error
// cancellation, and every suite evaluation is cached under its
// canonicalized configuration; because measurement noise is seeded from
// the configuration, serial, parallel and cached runs are all
// bit-identical. For a long-lived service, NewEngine shares one cache
// across concurrent requests:
//
//	eng := repro.NewEngine(repro.Options{Parallel: 8})
//	out, err := eng.Run("all") // later identical requests hit the cache
//
// The engine is also reachable over the network: cmd/sg2042d serves it
// via HTTP/JSON (internal/serve), so many clients share one warm cache.
// Experiments() lists the available experiments with their metadata.
//
// Beyond the paper's fixed experiments the study is machine-parametric:
// DefaultMachineRegistry serves the presets (plus the SG2044 and
// SG2042x2 follow-up presets) by name, MachineFromJSON/MachineJSON round-trip custom
// hardware as JSON specs, and Engine.Sweep runs what-if hardware
// sweeps — one axis (cores, clock, vector width, NUMA layout, sockets
// per node, fused node count) varied across a range, every point's
// per-class performance reported against the unmodified base. Engine.Campaign scales that to multi-axis
// campaigns: several machines x several axes x several software
// configurations gridded at once, summarised as ranked tables and a
// cores-vs-time Pareto front, with an optional streaming hook
// (CampaignStream) delivering points in grid order as they finish.
// docs/EXPERIMENTS.md records the calibration rationale behind the
// presets and the campaign spec schema.
//
// Start with examples/quickstart, or run:
//
//	go run ./cmd/sg2042sim -exp all -parallel 8
//	go run ./cmd/sg2042d -addr :8042
//
// See docs/ARCHITECTURE.md for the full map of the system and the
// determinism contract.
package repro

import (
	"repro/internal/autovec"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/rollback"
	"repro/internal/rvv"
	"repro/internal/suite"
)

// Re-exported core types. The aliases keep the public surface small
// while the implementation lives in internal packages.
type (
	// Machine describes one CPU under test.
	Machine = machine.Machine
	// Study evaluates the paper's experiments.
	Study = core.Study
	// Figure is a class-level bar+whisker result.
	Figure = core.Figure
	// ScalingTable is a Tables-1-3-shaped result.
	ScalingTable = core.ScalingTableResult
	// KernelBars is a per-kernel figure (Figure 3).
	KernelBars = core.KernelBars
	// Config selects machine/threads/placement/precision/compiler.
	Config = perfmodel.Config
	// Precision is FP32 or FP64.
	Precision = prec.Precision
	// Policy is a thread placement policy.
	Policy = placement.Policy
	// Compiler identifies a modelled compiler.
	Compiler = autovec.Compiler
	// KernelSpec describes one RAJAPerf kernel.
	KernelSpec = kernels.Spec
	// Class is a RAJAPerf benchmark class.
	Class = kernels.Class
)

// Precisions.
const (
	F32 = prec.F32
	F64 = prec.F64
)

// Placement policies (Section 3.2).
const (
	Block         = placement.Block
	CyclicNUMA    = placement.CyclicNUMA
	ClusterCyclic = placement.ClusterCyclic
)

// Compilers.
const (
	GCCXuanTie = autovec.GCCXuanTie
	Clang16    = autovec.Clang16
	GCCx86     = autovec.GCCx86
)

// Benchmark classes.
const (
	Algorithm = kernels.Algorithm
	Apps      = kernels.Apps
	Basic     = kernels.Basic
	Lcals     = kernels.Lcals
	Polybench = kernels.Polybench
	Stream    = kernels.Stream
)

// Classes lists the six benchmark classes in the paper's reporting
// order (a copy; callers may reorder freely).
func Classes() []Class { return append([]Class(nil), kernels.Classes...) }

// Machine presets (Section 2.1 and Table 4), plus two what-if presets:
// the SG2044 grounded in the follow-up evaluation (arXiv:2508.13840)
// and the dual-socket SG2042x2 board in the regime of the multi-socket
// study (arXiv:2502.10320).
var (
	SG2042       = machine.SG2042
	VisionFiveV1 = machine.VisionFiveV1
	VisionFiveV2 = machine.VisionFiveV2
	EPYC7742     = machine.EPYC7742
	XeonE52695   = machine.XeonE52695
	Xeon6330     = machine.Xeon6330
	XeonE52609   = machine.XeonE52609
	SG2044       = machine.SG2044
	SG2042x2     = machine.SG2042x2
)

// Machines returns the seven CPUs the paper evaluates.
func Machines() []*Machine { return machine.All() }

// X86Machines returns the four x86 comparators of Table 4.
func X86Machines() []*Machine { return machine.X86() }

// MachineRegistry is the immutable, concurrency-safe set of named
// machines; lookups are case-insensitive and everything out is
// deep-copied.
type MachineRegistry = machine.Registry

// DefaultMachineRegistry returns the one shared registry: the paper's
// seven presets plus the SG2044 and dual-socket SG2042x2 — the machine
// surface the HTTP API (GET /v1/machines) and sg2042sim -machines
// list, and the one every label lookup resolves against
// (MachineRegistry.Resolve).
func DefaultMachineRegistry() *MachineRegistry { return machine.DefaultRegistry() }

// UnknownMachineError reports a label the registry does not hold, as
// MachineRegistry.Resolve returns it. The HTTP layer distinguishes it
// from other (400-class) errors to answer 404.
type UnknownMachineError = machine.UnknownMachineError

// MachineFromJSON decodes and validates a JSON machine spec — the form
// POST /v1/sweep accepts for custom hardware. Unknown fields and
// structurally invalid machines (zero cores, bad NUMA map, unknown
// vector ISA) are rejected with a message naming the problem.
func MachineFromJSON(data []byte) (*Machine, error) { return machine.FromJSON(data) }

// MachineJSON encodes a machine as an indented JSON spec, the exact
// form MachineFromJSON accepts.
func MachineJSON(m *Machine) ([]byte, error) { return machine.ToJSON(m) }

// NewStudy returns a Study with the paper's defaults (five averaged
// runs with small seeded measurement noise).
func NewStudy() *Study { return core.NewStudy() }

// Kernels returns the 64 RAJAPerf kernel specs in class order. The
// internal registry is immutable and shared; the public API hands out
// copies — including each spec's loop IR access list — so callers may
// reorder or edit freely without corrupting the engine's registry.
func Kernels() []KernelSpec {
	return copySpecs(suite.All())
}

// KernelsByClass returns the kernels of one class (a copy, like
// Kernels).
func KernelsByClass(c Class) []KernelSpec {
	return copySpecs(suite.ByClass(c))
}

// copySpecs clones specs deeply enough that no mutation of the result
// can reach the shared registry: the slice itself plus each spec's
// Loop.Accesses backing array (every other Spec field is a value or an
// immutable function).
func copySpecs(specs []KernelSpec) []KernelSpec {
	out := append([]KernelSpec(nil), specs...)
	for i := range out {
		out[i].Loop.Accesses = append([]ir.Access(nil), out[i].Loop.Accesses...)
	}
	return out
}

// KernelByName looks a kernel up by its RAJAPerf name ("TRIAD", "2MM").
// Like Kernels, the returned spec is a copy the caller may edit.
func KernelByName(name string) (KernelSpec, error) {
	s, err := suite.ByName(name)
	if err != nil {
		return s, err
	}
	s.Loop.Accesses = append([]ir.Access(nil), s.Loop.Accesses...)
	return s, nil
}

// KernelNames lists all 64 kernel names (a copy, like Kernels).
func KernelNames() []string {
	return append([]string(nil), suite.Names()...)
}

// DefaultCompilerFor returns the compiler the paper uses on a machine.
func DefaultCompilerFor(m *Machine) Compiler { return perfmodel.DefaultCompilerFor(m) }

// RollbackRVV translates RVV v1.0 assembly to v0.7.1 (the RVV-Rollback
// pipeline that makes Clang output executable on the C920). Input and
// output use the textual assembly of the internal software vector ISA.
func RollbackRVV(src string) (string, error) { return rollback.TranslateText(src) }

// RVVKernelAssembly generates VLS or VLA RVV assembly for one of the
// stream-style kernel templates ("copy", "scale", "add", "triad",
// "daxpy", "dot") in the given dialect ("rvv0.7.1" or "rvv1.0") at
// element width sew (32 or 64). vla selects vector-length-agnostic
// code; otherwise VLS targeting a 128-bit implementation is emitted.
func RVVKernelAssembly(kernel string, dialect string, sew int, vla bool) (string, error) {
	var k rvv.GenKernel
	switch kernel {
	case "copy":
		k = rvv.KCopy
	case "scale":
		k = rvv.KScale
	case "add":
		k = rvv.KAdd
	case "triad":
		k = rvv.KTriad
	case "daxpy":
		k = rvv.KDaxpy
	case "dot":
		k = rvv.KDot
	default:
		return "", errUnknownKernel(kernel)
	}
	d := rvv.V071
	if dialect == "rvv1.0" {
		d = rvv.V10
	}
	mode := rvv.ModeVLS
	if vla {
		mode = rvv.ModeVLA
	}
	src, _, err := rvv.Generate(k, rvv.GenConfig{Dialect: d, SEW: sew, Mode: mode, VLEN: 128})
	return src, err
}

type errUnknownKernel string

func (e errUnknownKernel) Error() string {
	return "repro: unknown RVV kernel template " + string(e)
}
