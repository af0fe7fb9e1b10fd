// Package perfmodel estimates kernel execution time on the modelled
// CPUs: an ECM/roofline-style analytic model with explicit terms for
//
//   - compute throughput (scalar vs vector, per the compiler model's
//     decision and efficiency),
//   - instruction/LSU issue (what limits scalar code even when data is
//     cache-resident),
//   - cache and DRAM bandwidth, with working-set capacity deciding which
//     level serves the kernel and placement-induced sharing deciding the
//     per-thread bandwidth slice,
//   - memory latency for indirect/random access (MLP-limited),
//   - atomic contention,
//   - and parallel-region overhead (fork/join plus the near-full-
//     occupancy straggler term that produces the paper's 64-thread
//     collapse).
//
// All results are ratios in the study (speedups, times-faster), so the
// absolute scale is synthetic; the mechanisms above carry the shapes the
// paper reports. Calibration constants live in calibrate.go and the
// paper-vs-model rationale in docs/EXPERIMENTS.md.
package perfmodel

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/autovec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/prec"
)

// Config selects one execution configuration, mirroring the knobs the
// paper turns: machine, thread count and placement, precision, compiler
// and vector mode.
type Config struct {
	Machine   *machine.Machine
	Threads   int
	Placement placement.Policy
	Prec      prec.Precision
	Compiler  autovec.Compiler
	// Mode requests VLA or VLS codegen (Clang only; GCC ignores it).
	Mode autovec.Mode
	// ScalarOnly disables vectorisation entirely (the -fno-tree-
	// vectorize baseline of Figure 2).
	ScalarOnly bool
	// ProblemN overrides the kernel's default problem size when > 0.
	ProblemN int
}

// DefaultCompilerFor returns the compiler the paper uses on a machine:
// the XuanTie GCC fork on RISC-V parts, mainline GCC on x86.
func DefaultCompilerFor(m *machine.Machine) autovec.Compiler {
	switch m.Vector.ISA {
	case machine.AVX, machine.AVX2, machine.AVX512:
		return autovec.GCCx86
	default:
		return autovec.GCCXuanTie
	}
}

// Breakdown exposes the model's intermediate terms for reports, tests
// and the ablation benchmarks.
type Breakdown struct {
	Seconds   float64 // total kernel time (all reps)
	PerRep    float64
	CompSec   float64 // compute-bound term per rep
	IssueSec  float64 // instruction/LSU issue term per rep
	MemSec    float64 // bandwidth term per rep
	LatSec    float64 // latency term per rep
	AtomicSec float64 // atomic serialisation per rep
	SyncSec   float64 // fork/join + straggler per rep
	ServedBy  string  // cache level serving the working set
	Decision  autovec.Decision
}

// Model evaluates kernel times under a calibration. Set Cal before
// the first evaluation: the uncore memo keys on its content, hashed
// once, so editing it in place afterwards is not supported (assign a
// fresh Model instead). A Model must not be copied after first use.
type Model struct {
	Cal Calibration

	calFP atomic.Uint64 // calKey's hash; 0 until first computed
}

// calKey identifies the calibration by content, so Models with equal
// calibrations — every fresh engine's default one — share uncore halves
// and a Model with another calibration never reads them. It is an
// FNV-1a hash of every field's bits, PatternEff in pattern order;
// TestCalKeyCoversEveryField finds the fields by reflection.
func (m *Model) calKey() uint64 {
	if k := m.calFP.Load(); k != 0 {
		return k
	}
	c := &m.Cal
	h := uint64(14695981039346656037)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	for _, v := range [...]float64{c.LSUPerCycle, c.VLAFactor, c.CacheUsableFraction,
		c.AtomicRMWCycles, c.AtomicContention, c.StragglerExponent, c.ScalarMemBW32,
		c.ScalarMemBW64, c.XSocketTrafficFrac, c.XNodeTrafficFrac} {
		put(math.Float64bits(v))
	}
	pats := make([]ir.Pattern, 0, len(c.PatternEff))
	for p := range c.PatternEff {
		pats = append(pats, p)
	}
	slices.Sort(pats)
	put(uint64(len(pats)))
	for _, p := range pats {
		put(uint64(p))
		put(math.Float64bits(c.PatternEff[p]))
	}
	k := h | 1 // never 0, the not-yet-hashed mark
	m.calFP.Store(k)
	return k
}

// New returns a Model with the default calibration.
func New() *Model { return &Model{Cal: DefaultCalibration()} }

// KernelTime estimates the execution time of the kernel under cfg. It
// composes the same uncore and clock halves as SuiteTimes (batch.go),
// taking the config-level uncore inputs from the Model's uncore memo,
// so its breakdown is bit-identical to the batched one.
func (m *Model) KernelTime(spec kernels.Spec, cfg Config) (Breakdown, error) {
	if err := validate(cfg); err != nil {
		return Breakdown{}, err
	}
	h, err := m.uncoreFor(cfg, cfg.Machine.UncoreFingerprint())
	if err != nil {
		return Breakdown{}, err
	}
	pre := preOf(&spec, cfg.ProblemN)
	dec := scalarBuildDecision
	if !scalarBuild(cfg) {
		dec = autovec.AnalyzeKernel(cfg.Compiler, spec.Loop, cfg.Mode)
	}
	var u uncoreTerms
	m.uncoreTermsOf(&u, &h.ctx, &spec, &pre, &dec, m.patternEfficiency(pre.dom))
	c := m.clockCtxFor(cfg)
	var b Breakdown
	m.breakdown(&b, &c, cfg.Machine, &spec, &pre, &dec, &u)
	return b, nil
}

// trafficPerIterPre returns bytes moved per innermost iteration, from
// the kernel's precomputed access counts. The DRAM-served share of
// stores pays write-allocate + write-back (2x); cache-resident stores
// don't.
func trafficPerIterPre(pre *specPre, p prec.Precision, dramShare float64) float64 {
	fb := float64(p.Bytes())
	loads := float64(pre.loadsF*fb) + float64(pre.loadsI*8)
	stores := float64(pre.storesF*fb) + float64(pre.storesI*8)
	stores = float64(stores * (1 + dramShare))
	return loads + stores
}

// patternEfficiency scales bandwidth by spatial locality.
func (m *Model) patternEfficiency(p ir.Pattern) float64 {
	if eff, ok := m.Cal.PatternEff[p]; ok {
		return eff
	}
	return 1
}

// latencyTerm charges latency-bound access streams (indirect/random)
// that bandwidth numbers do not capture, divided by the core's MLP.
func latencyTerm(x *uncoreCtx, dom ir.Pattern, served string,
	itersPerThread float64) float64 {
	if dom != ir.Indirect && dom != ir.Random {
		return 0
	}
	latNs := x.memLatNs
	switch served {
	case "L1D":
		return 0
	case "L2":
		latNs = x.l2LatNs
	case "L3":
		if x.hasL3 {
			latNs = x.l3LatNs
		}
	}
	// One dependent miss per iteration of the gather stream.
	missesPerIter := 1.0
	return itersPerThread * missesPerIter * latNs * 1e-9 / x.mlp
}

// atomicTerm serialises contended atomic updates: kernels whose atomic
// target is a single shared location (Broadcast store) degrade with
// threads; distributed atomics only pay the RMW cost, rmw seconds each.
func (m *Model) atomicTerm(rmw float64, pre *specPre, threads int) float64 {
	if !pre.atomic {
		return 0
	}
	iters := pre.iters
	if pre.contended {
		// Every update serialises on one cache line; contention adds
		// cross-thread line bouncing that grows with sharers.
		factor := 1 + float64(m.Cal.AtomicContention*float64(threads-1))
		return iters * rmw * factor
	}
	// Distributed atomics: per-thread RMW cost, occasional false sharing.
	return iters / float64(threads) * rmw
}

// syncOverhead is the per-region fork/join plus straggler cost.
func (m *Model) syncOverhead(mach *machine.Machine, threads int) float64 {
	fj := mach.ForkJoinNsBase + float64(mach.ForkJoinNsPerThread*float64(threads))
	occupancy := float64(threads) / float64(mach.Cores)
	straggler := float64(mach.StragglerNs * math.Pow(occupancy, m.Cal.StragglerExponent))
	return (fj + straggler) * 1e-9
}
