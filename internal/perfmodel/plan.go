package perfmodel

// Compiled suite evaluation. A campaign evaluates tens of
// configurations over the same immutable 64-kernel suite, so the pure
// per-spec work — access-count walks, dominant-pattern scans, iteration
// and footprint closures, the compiler model's vectorisation analysis —
// is memoized per spec, and the uncore half per configuration
// (batch.go). A SuitePlan compiles a (Model, Config, specs) triple from
// those tables, leaving Times as the clock half's arithmetic. Every
// derived quantity is computed with the same operations in the same
// order as the one-shot path, so planned and one-shot evaluations are
// bit-identical (plan_test.go proves it field by field).

import (
	"sync"

	"repro/internal/autovec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/suite"
)

// specPre carries one kernel's config-independent precomputed inputs at
// a fixed problem size: everything kernelTime used to recompute per
// configuration that depends only on the spec.
type specPre struct {
	iters     float64 // spec.Iters(n)
	footElems float64 // spec.FootprintElems(n)
	flops     float64 // Loop.FlopsPerIter
	intOps    float64 // Loop.IntOpsPerIter
	loadsF    float64 // Loop.LoadsPerIter()
	storesF   float64 // Loop.StoresPerIter()
	loadsI    float64 // Loop.IntLoadsPerIter()
	storesI   float64 // Loop.IntStoresPerIter()
	accesses  float64 // loadsF + storesF + loadsI + storesI, in that order
	dom       ir.Pattern
	atomic    bool
	contended bool // an Atomic kernel updating one Broadcast location
}

// preOf derives a spec's invariants at problem size n (the spec's
// default when problemN is 0). The sums mirror kernelTime's evaluation
// order exactly so substituting them is bit-identical.
func preOf(spec *kernels.Spec, problemN int) specPre {
	n := spec.DefaultN
	if problemN > 0 {
		n = problemN
	}
	p := specPre{
		iters:     spec.Iters(n),
		footElems: spec.FootprintElems(n),
		flops:     spec.Loop.FlopsPerIter,
		intOps:    spec.Loop.IntOpsPerIter,
		loadsF:    spec.Loop.LoadsPerIter(),
		storesF:   spec.Loop.StoresPerIter(),
		loadsI:    spec.Loop.IntLoadsPerIter(),
		storesI:   spec.Loop.IntStoresPerIter(),
		dom:       spec.Loop.DominantPattern(),
		atomic:    spec.Loop.Features.Has(ir.Atomic),
	}
	p.accesses = p.loadsF + p.storesF + p.loadsI + p.storesI
	for _, a := range spec.Loop.Accesses {
		if a.Kind == ir.Store && a.Pattern == ir.Broadcast {
			p.contended = true
		}
	}
	return p
}

// canonicalPre memoizes the invariants of the full suite at default
// problem sizes — the slice suite.All returns is shared and immutable,
// so its backing array identifies it.
var canonicalPre struct {
	once sync.Once
	head *kernels.Spec
	n    int
	pre  []specPre
}

// decisionMemo holds the canonical suite's autovec decisions per
// (compiler, mode): the compiler model's per-kernel analysis depends
// only on (compiler, mode, loop), and a campaign asks for the same one
// or two pairs across every configuration. Unbounded — the key space
// is the handful of compiler and mode values.
var decisionMemo memo.Map[decKey, []autovec.Decision]

type decKey struct {
	c autovec.Compiler
	m autovec.Mode
}

func canonicalInit() {
	specs := suite.All()
	canonicalPre.head = &specs[0]
	canonicalPre.n = len(specs)
	canonicalPre.pre = make([]specPre, len(specs))
	for i := range specs {
		canonicalPre.pre[i] = preOf(&specs[i], 0)
	}
}

// isCanonical reports whether specs is the shared suite slice.
func isCanonical(specs []kernels.Spec) bool {
	canonicalPre.once.Do(canonicalInit)
	return &specs[0] == canonicalPre.head && len(specs) == canonicalPre.n
}

// preFor returns the invariant table for specs: the memoized canonical
// table when specs is the shared suite slice at default sizes, a fresh
// table otherwise (kernel subsets like Figure 3's Polybench slice, or a
// ProblemN override).
func preFor(specs []kernels.Spec, problemN int) []specPre {
	if len(specs) == 0 {
		return nil
	}
	if problemN == 0 && isCanonical(specs) {
		return canonicalPre.pre
	}
	pre := make([]specPre, len(specs))
	for i := range specs {
		pre[i] = preOf(&specs[i], problemN)
	}
	return pre
}

// decisionsFor returns per-spec autovec decisions for (compiler, mode),
// memoized for the canonical suite slice.
func decisionsFor(specs []kernels.Spec, c autovec.Compiler, mode autovec.Mode) []autovec.Decision {
	if len(specs) == 0 {
		return nil
	}
	analyze := func() ([]autovec.Decision, error) {
		dec := make([]autovec.Decision, len(specs))
		for i := range specs {
			dec[i] = autovec.AnalyzeKernel(c, specs[i].Loop, mode)
		}
		return dec, nil
	}
	if !isCanonical(specs) {
		dec, _ := analyze()
		return dec
	}
	dec, _, _ := decisionMemo.Get(decKey{c, mode}, analyze)
	return dec
}

// SuitePlan is a compiled (Model, Config, specs) evaluation: the
// config's clock rates, the per-spec invariants and compiler decisions,
// and every kernel's uncore half, resolved once. For the canonical
// suite at default sizes the decisions and uncore terms are the uncore
// memo entry's own, so a plan on a hit allocates nothing per kernel.
// Seconds replays one kernel's clock half as pure arithmetic, so a
// caller that needs only the time keeps no Breakdown buffer; Times
// replays every kernel's full Breakdown. A plan is only used by the
// goroutine that built it.
type SuitePlan struct {
	m     *Model
	mach  *machine.Machine
	clk   clockCtx
	specs []kernels.Spec
	pre   []specPre
	dec   []autovec.Decision // nil under a scalar build
	terms []uncoreTerms
}

// SuitePlan compiles specs under cfg. The returned plan evaluates
// bit-identically to calling KernelTime per spec.
func (m *Model) SuitePlan(specs []kernels.Spec, cfg Config) (*SuitePlan, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return m.SuitePlanFP(specs, cfg, cfg.Machine.UncoreFingerprint())
}

// SuitePlanFP is SuitePlan for a caller that has already hashed
// cfg.Machine.UncoreFingerprint() into uncoreFP: the campaign planner
// hashes each derived machine once, not once per point.
func (m *Model) SuitePlanFP(specs []kernels.Spec, cfg Config, uncoreFP uint64) (*SuitePlan, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	h, err := m.uncoreFor(cfg, uncoreFP)
	if err != nil {
		return nil, err
	}
	p := &SuitePlan{m: m, mach: cfg.Machine, clk: m.clockCtxFor(cfg), specs: specs}
	if len(specs) > 0 && cfg.ProblemN == 0 && isCanonical(specs) {
		p.pre, p.dec, p.terms = canonicalPre.pre, h.dec, h.terms
		return p, nil
	}
	p.pre = preFor(specs, cfg.ProblemN)
	if !scalarBuild(cfg) {
		p.dec = decisionsFor(specs, cfg.Compiler, cfg.Mode)
	}
	p.terms = make([]uncoreTerms, len(specs))
	for i := range specs {
		m.uncoreTermsOf(&p.terms[i], &h.ctx, &specs[i], &p.pre[i], decisionAt(p.dec, i),
			m.patternEfficiency(p.pre[i].dom))
	}
	return p, nil
}

// Seconds is the plan's i-th kernel's total time: the Seconds field of
// its Breakdown, evaluated without building the Breakdown.
func (p *SuitePlan) Seconds(i int) float64 {
	_, _, _, _, s := p.m.clockTerms(&p.clk, &p.specs[i], &p.pre[i], decisionAt(p.dec, i), &p.terms[i])
	return s
}

// Times evaluates every planned kernel, reusing out when it has the
// capacity (pass nil to allocate). The breakdowns are bit-identical to
// SuiteTimes and to per-kernel KernelTime calls.
func (p *SuitePlan) Times(out []Breakdown) []Breakdown {
	if cap(out) >= len(p.specs) {
		out = out[:len(p.specs)]
	} else {
		out = make([]Breakdown, len(p.specs))
	}
	for i := range p.specs {
		p.m.breakdown(&out[i], &p.clk, p.mach, &p.specs[i], &p.pre[i], decisionAt(p.dec, i), &p.terms[i])
	}
	return out
}
