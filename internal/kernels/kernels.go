// Package kernels defines the framework the 64 RAJAPerf kernels are
// implemented in: a Spec describing each kernel (class, loop IR,
// problem-size scaling, default size and repetition count) plus
// buildable Instances that actually execute the kernel — sequentially
// or on a goroutine team — at either precision.
//
// The six class sub-packages (algorithm, apps, basic, lcals, polybench,
// stream) contribute the kernels; internal/suite aggregates them.
package kernels

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/prec"
	"repro/internal/team"
)

// Class is a RAJAPerf benchmark class (Section 2.2 of the paper).
type Class int

const (
	// Algorithm: "six kernels which undertake basic algorithmic
	// activities such as memory copies, the sorting of data and
	// reductions".
	Algorithm Class = iota
	// Apps: "thirteen kernels ... represent common components of HPC
	// applications".
	Apps
	// Basic: "foundational mathematical functions via sixteen kernels".
	Basic
	// Lcals: "the Livermore Compiler Analysis Loop Suite ... eleven
	// loop based kernels".
	Lcals
	// Polybench: "thirteen polyhedral kernels".
	Polybench
	// Stream: "five kernels that focus on memory bandwidth".
	Stream
)

var classNames = map[Class]string{
	Algorithm: "Algorithm",
	Apps:      "Apps",
	Basic:     "Basic",
	Lcals:     "Lcals",
	Polybench: "Polybench",
	Stream:    "Stream",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists all classes in the paper's reporting order.
var Classes = []Class{Algorithm, Apps, Basic, Lcals, Polybench, Stream}

// Instance is one runnable materialisation of a kernel at a fixed size
// and precision.
type Instance interface {
	// Run executes one repetition of the kernel on the runner.
	Run(r team.Runner)
	// Checksum returns a value derived from the kernel's outputs, used
	// to verify sequential/parallel and cross-precision consistency.
	Checksum() float64
}

// Builder constructs an Instance for a problem size.
type Builder func(n int) Instance

// Spec describes one kernel.
type Spec struct {
	Name  string
	Class Class

	// Loop is the kernel's hot-loop IR, consumed by the compiler model
	// and the performance model.
	Loop ir.Loop

	// DefaultN is the default problem size (elements for 1D kernels,
	// matrix order for 2D, grid side for 3D — interpreted by Iters and
	// Footprint).
	DefaultN int
	// Reps is the number of repetitions one suite pass runs; short
	// kernels run many reps (making fork-join overhead matter at high
	// thread counts, the Table 1-3 effect).
	Reps int
	// Regions is the number of parallel regions per repetition
	// (kernels made of several loops pay several fork-joins).
	Regions int

	// Iters returns the innermost-iteration count for problem size n.
	Iters func(n int) float64
	// FootprintElems returns the total data elements the kernel
	// touches at size n (the working set is FootprintElems * elem size).
	FootprintElems func(n int) float64

	// SeqOnly marks kernels whose loop-carried dependence cannot be
	// parallelised (GEN_LIN_RECUR): Run executes sequentially on every
	// runner, as OpenMP would.
	SeqOnly bool

	// SerialFrac is the Amdahl serial fraction of one repetition:
	// work that does not parallelise (the k-way merge in SORT, the
	// cross-thread prefix in SCAN/INDEXLIST). 0 for fully parallel
	// kernels.
	SerialFrac float64

	// Build32 and Build64 construct runnable instances.
	Build32 Builder
	Build64 Builder
}

// Validate checks a Spec for structural completeness.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("kernels: spec with empty name")
	}
	if err := s.Loop.Validate(); err != nil {
		return fmt.Errorf("kernels: %s: %w", s.Name, err)
	}
	if s.Loop.Kernel != s.Name {
		return fmt.Errorf("kernels: %s: loop IR is named %q", s.Name, s.Loop.Kernel)
	}
	if s.DefaultN <= 0 || s.Reps <= 0 || s.Regions <= 0 {
		return fmt.Errorf("kernels: %s: non-positive size/reps/regions", s.Name)
	}
	if s.Iters == nil || s.FootprintElems == nil {
		return fmt.Errorf("kernels: %s: missing scaling functions", s.Name)
	}
	if s.Build32 == nil || s.Build64 == nil {
		return fmt.Errorf("kernels: %s: missing builders", s.Name)
	}
	if s.Iters(s.DefaultN) <= 0 || s.FootprintElems(s.DefaultN) <= 0 {
		return fmt.Errorf("kernels: %s: degenerate scaling at default size", s.Name)
	}
	if s.SerialFrac < 0 || s.SerialFrac >= 1 {
		return fmt.Errorf("kernels: %s: serial fraction %v outside [0,1)", s.Name, s.SerialFrac)
	}
	return nil
}

// Build constructs an instance at the given precision.
func (s *Spec) Build(p prec.Precision, n int) Instance {
	if p == prec.F32 {
		return s.Build32(n)
	}
	return s.Build64(n)
}

// --- Instance helpers -------------------------------------------------

// Funcs adapts a run closure and checksum closure into an Instance.
type Funcs struct {
	RunFn      func(r team.Runner)
	ChecksumFn func() float64
}

// Run implements Instance.
func (f *Funcs) Run(r team.Runner) { f.RunFn(r) }

// Checksum implements Instance.
func (f *Funcs) Checksum() float64 { return f.ChecksumFn() }

// Checksum folds a slice into a scale-stable scalar, in the spirit of
// RAJAPerf's checksums: sum of x[i]*(i%7+1) so reorderings of distinct
// data are detected.
func Checksum[F prec.Float](xs []F) float64 {
	s := 0.0
	for i, x := range xs {
		s += float64(x) * float64(i%7+1)
	}
	return s
}

// ChecksumInts is Checksum for integer payloads (index lists).
func ChecksumInts(xs []int64) float64 {
	s := 0.0
	for i, x := range xs {
		s += float64(x) * float64(i%7+1)
	}
	return s
}

// InitSeq fills xs with a bounded, non-constant sequence: the RAJAPerf
// "init" style. Values stay within [0.1, 1.1) to keep FP32 and FP64
// runs numerically comparable.
func InitSeq[F prec.Float](xs []F) {
	for i := range xs {
		xs[i] = F(0.1 + float64(i%1000)/1000.0)
	}
}

// InitSigned fills xs alternating around zero (used by conditional
// kernels so both branches execute).
func InitSigned[F prec.Float](xs []F) {
	for i := range xs {
		v := 0.05 + float64(i%617)/617.0
		if i%2 == 1 {
			v = -v
		}
		xs[i] = F(v)
	}
}

// InitConst fills xs with the value.
func InitConst[F prec.Float](xs []F, v float64) {
	for i := range xs {
		xs[i] = F(v)
	}
}

// InitPseudo fills xs with a deterministic pseudo-random pattern in
// [0,1) — an LCG, so no global rand dependency and identical across
// precisions.
func InitPseudo[F prec.Float](xs []F, seed uint64) {
	s := seed*2862933555777941757 + 3037000493
	for i := range xs {
		s = s*2862933555777941757 + 3037000493
		xs[i] = F(float64(s>>11) / float64(1<<53))
	}
}

// Sqrt is a precision-preserving square root: float32 inputs round the
// result to float32 as the hardware would.
func Sqrt[F prec.Float](x F) F {
	return F(math.Sqrt(float64(x)))
}

// Exp is the precision-preserving exponential.
func Exp[F prec.Float](x F) F {
	return F(math.Exp(float64(x)))
}

// Fabs is the precision-preserving absolute value.
func Fabs[F prec.Float](x F) F {
	if x < 0 {
		return -x
	}
	return x
}
