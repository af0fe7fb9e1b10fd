// Package autovec models the auto-vectorisation behaviour of the
// compilers the paper uses:
//
//   - XuanTie GCC 8.4 (the 20210618 release, the paper's RISC-V
//     compiler): a conservative inner-loop vectoriser that emits VLS
//     (vector-length-specific) RVV v0.7.1 code. Per the paper (citing
//     [11]): "out of the 64 kernels in the RAJAPerf benchmark suite
//     only 30 were auto-vectorised by GCC and out of those 30 the
//     scalar code path was executed for 7 of these at runtime".
//   - Clang 16 for RISC-V: a far more capable vectoriser
//     (if-conversion, gather/scatter, outer-loop handling) that emits
//     RVV v1.0 in VLA or VLS mode: "Clang was able to auto-vectorise
//     59 kernels with only 3 of these following the scalar path at
//     runtime". Its v1.0 output needs internal/rollback to execute on
//     the C920.
//   - GCC for x86 (8.3/11.2 as used on the comparison systems): the
//     mature x86 backend vectorises a middle ground of the suite with
//     reliable runtime checks.
//
// The model is a rule engine over the kernel loop IR (internal/ir). The
// aggregate decisions reproduce the counts above, and the per-kernel
// decisions reproduce every named case in the paper (Warshall/Heat3D
// not vectorised by GCC, Jacobi1D/2D runtime-scalar under GCC,
// 2MM/3MM/GEMM runtime-scalar under Clang).
package autovec

import (
	"fmt"

	"repro/internal/ir"
)

// Compiler identifies a modelled compiler.
type Compiler int

const (
	// GCCXuanTie is T-Head's GCC 8.4 fork targeting RVV v0.7.1.
	GCCXuanTie Compiler = iota
	// Clang16 is LLVM/Clang targeting RVV v1.0.
	Clang16
	// GCCx86 is mainline GCC targeting AVX/AVX2/AVX-512.
	GCCx86
)

func (c Compiler) String() string {
	switch c {
	case GCCXuanTie:
		return "XuanTie GCC 8.4"
	case Clang16:
		return "Clang 16"
	case GCCx86:
		return "GCC (x86)"
	}
	return fmt.Sprintf("Compiler(%d)", int(c))
}

// Mode is the vector codegen style.
type Mode int

const (
	// Scalar: no vector code emitted.
	Scalar Mode = iota
	// VLS: vector-length-specific code ("specifically targets the
	// 128-bit vector width"); GCC's only mode, Clang's optional mode.
	VLS
	// VLA: vector-length-agnostic code; Clang's default.
	VLA
)

func (m Mode) String() string {
	switch m {
	case Scalar:
		return "scalar"
	case VLS:
		return "VLS"
	case VLA:
		return "VLA"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Decision is the outcome of compiling one kernel.
type Decision struct {
	// Vectorized: the compiler emitted a vector code path.
	Vectorized bool
	// RuntimeScalar: a vector path exists but the runtime check or
	// cost model routes execution to the scalar path, so vector
	// hardware sits idle (the "scalar code path was executed" cases).
	RuntimeScalar bool
	// Mode of the emitted vector code (Scalar when !Vectorized).
	Mode Mode
	// Efficiency in (0,1] scales the vector-unit utilisation of the
	// emitted code: masked conditionals, gathers, short trips and
	// strided access all waste lanes.
	Efficiency float64
	// Reason is a human-readable explanation for reports.
	Reason string
}

// VectorEffective reports whether the vector path actually executes.
func (d Decision) VectorEffective() bool {
	return d.Vectorized && !d.RuntimeScalar
}

// Analyze decides how the compiler treats the loop. requested selects
// VLA vs VLS for Clang (GCC only emits VLS).
func Analyze(c Compiler, l ir.Loop, requested Mode) Decision {
	switch c {
	case GCCXuanTie:
		return analyzeGCCXuanTie(l)
	case Clang16:
		return analyzeClang(l, requested)
	case GCCx86:
		return analyzeGCCx86(l)
	}
	return Decision{Mode: Scalar, Efficiency: 1, Reason: "unknown compiler"}
}

func scalar(reason string) Decision {
	return Decision{Vectorized: false, Mode: Scalar, Efficiency: 1, Reason: reason}
}

// analyzeGCCXuanTie models the conservative RVV 0.7.1 vectoriser.
func analyzeGCCXuanTie(l ir.Loop) Decision {
	f := l.Features
	switch {
	case f.HasAny(ir.SortBody):
		return scalar("sorting loop")
	case f.HasAny(ir.Scan):
		return scalar("scan dependence")
	case f.HasAny(ir.LoopCarried):
		return scalar("loop-carried dependence")
	case f.HasAny(ir.Atomic):
		return scalar("atomic update in loop body")
	case f.HasAny(ir.Conditional):
		return scalar("no if-conversion for RVV 0.7.1")
	case f.HasAny(ir.Indirection):
		return scalar("no gather/scatter codegen")
	case f.HasAny(ir.FunctionCall):
		return scalar("no vector math library")
	case f.HasAny(ir.MinMaxReduction | ir.MinMaxLoc):
		return scalar("min/max reduction not handled")
	case f.HasAny(ir.MixedTypes):
		return scalar("mixed int/float conversion in loop")
	case f.HasAny(ir.NonUnitStride):
		return scalar("non-unit stride access")
	case f.HasAny(ir.MultiExit):
		return scalar("multiple loop exits")
	case l.Nest >= 3 && l.DominantPattern() == ir.Stencil:
		// The paper: "GCC is unable to auto-vectorise the Warshall and
		// Heat3D kernels" — deep stencil nests defeat its dependence
		// analysis.
		return scalar("multi-dimensional stencil subscripts")
	case l.DominantPattern() == ir.Transpose:
		return scalar("column-major access")
	}
	d := Decision{Vectorized: true, Mode: VLS, Efficiency: 1, Reason: "vectorised (VLS RVV 0.7.1)"}
	if f.Has(ir.PotentialAlias) {
		// Versioned with a runtime overlap check that fails for these
		// kernels' buffer layouts: "the scalar code path was executed
		// for 7 of these at runtime".
		d.RuntimeScalar = true
		d.Reason = "vectorised but alias check routes to scalar path at runtime"
	}
	if f.Has(ir.ShortTrip) {
		d.Efficiency = 0.6
	}
	return d
}

// analyzeClang models LLVM's loop vectoriser (RVV v1.0 output).
func analyzeClang(l ir.Loop, requested Mode) Decision {
	f := l.Features
	switch {
	case f.HasAny(ir.SortBody):
		return scalar("sorting loop")
	case f.HasAny(ir.Scan):
		return scalar("scan dependence")
	case f.HasAny(ir.LoopCarried) && !f.HasAny(ir.MinMaxReduction):
		// Clang vectorises FLOYD_WARSHALL (the k-loop carried
		// dependence is outside the vectorised ij loops, and the inner
		// min folds via if-conversion); true inner recurrences
		// (GEN_LIN_RECUR) stay scalar.
		if l.Nest < 2 {
			return scalar("loop-carried recurrence")
		}
	}
	mode := requested
	if mode == Scalar {
		mode = VLA // Clang's default
	}
	d := Decision{Vectorized: true, Mode: mode, Efficiency: 1,
		Reason: fmt.Sprintf("vectorised (%v RVV 1.0)", mode)}
	// Cost-model haircuts.
	if f.Has(ir.Conditional) {
		d.Efficiency *= 0.7 // masked execution wastes lanes
	}
	if f.Has(ir.Indirection) {
		d.Efficiency *= 0.5 // gather/scatter
	}
	if f.Has(ir.Atomic) {
		d.Efficiency *= 0.35 // vector compute, scalar atomic commit
	}
	if f.Has(ir.ShortTrip) {
		d.Efficiency *= 0.6
	}
	if f.HasAny(ir.NonUnitStride) || l.DominantPattern() == ir.Transpose {
		d.Efficiency *= 0.5 // strided loads
	}
	if f.Has(ir.LoopCarried) {
		d.Efficiency *= 0.7 // outer-loop vectorisation overhead
	}
	// "the 2MM, 3MM and GEMM kernels execute in scalar mode only":
	// for the deep reuse nests Clang's runtime trip-count/layout check
	// picks the scalar path.
	if f.Has(ir.OuterLoopReuse) && l.Nest >= 3 {
		d.RuntimeScalar = true
		d.Reason = "vectorised but cost model routes to scalar path at runtime"
	}
	return d
}

// analyzeGCCx86 models mainline GCC on AVX2/AVX-512 systems: more
// capable than the RVV 0.7.1 fork (vector math library, masked
// conditionals, reliable alias peeling) but less aggressive than Clang.
func analyzeGCCx86(l ir.Loop) Decision {
	f := l.Features
	switch {
	case f.HasAny(ir.SortBody):
		return scalar("sorting loop")
	case f.HasAny(ir.Scan):
		return scalar("scan dependence")
	case f.HasAny(ir.LoopCarried):
		return scalar("loop-carried dependence")
	case f.HasAny(ir.Atomic):
		return scalar("atomic update in loop body")
	case f.HasAny(ir.Indirection):
		return scalar("indirect access")
	case f.HasAny(ir.MinMaxLoc):
		return scalar("min-with-location reduction")
	}
	d := Decision{Vectorized: true, Mode: VLS, Efficiency: 1, Reason: "vectorised (AVX)"}
	if f.Has(ir.Conditional) {
		d.Efficiency *= 0.75 // blend/mask
	}
	if f.Has(ir.FunctionCall) {
		d.Efficiency *= 0.8 // libmvec
	}
	if f.HasAny(ir.NonUnitStride) || l.DominantPattern() == ir.Transpose {
		d.Efficiency *= 0.55
	}
	if f.Has(ir.ShortTrip) {
		d.Efficiency *= 0.7
	}
	// x86 GCC's versioning checks succeed (peeling + runtime overlap
	// tests are mature), so PotentialAlias does not force the scalar
	// path as it does on the RVV fork.
	return d
}

// Override adjusts Decision efficiency for specific (compiler, kernel)
// quirks the paper observed that a feature-level rule cannot express.
// The only entry reproduces "a surprise was that the Jacobi2D kernel is
// slower with Clang compared to its GCC counterpart".
var overrides = map[Compiler]map[string]float64{
	Clang16: {"JACOBI_2D": 0.1},
}

// AnalyzeKernel runs Analyze and applies per-kernel overrides.
func AnalyzeKernel(c Compiler, l ir.Loop, requested Mode) Decision {
	d := Analyze(c, l, requested)
	if m, ok := overrides[c]; ok {
		if eff, ok := m[l.Kernel]; ok && d.Vectorized {
			d.Efficiency = eff
			d.Reason += " (kernel-specific codegen quirk)"
		}
	}
	return d
}
