package perfmodel

// The per-kernel model in two halves. Most of a kernel's time depends
// on the memory system, not on the clock: the Amdahl split of its
// iterations, the cache walk and bandwidth blend, the traffic, latency
// and synchronisation terms, and the placement analysis under all of
// them read neither ClockHz nor Vector.WidthBits. The uncore half
// computes those; the clock half adds the compute, issue and atomic
// terms — the only ones that read the clock or the vector width — and
// combines everything into PerRep and Seconds. KernelTime, SuiteTimes
// and SuitePlan all compose the same two functions, so every path is
// bit-identical (batch_test.go and plan_test.go prove it field by
// field).
//
// The uncore half is memoized per configuration and machine uncore
// fingerprint (uncoreMemo): the config-level inputs plus the canonical
// suite's per-kernel terms. Every clock and vector-width variant of a
// base — each grid point of a cold clock campaign — shares its base's
// entry and evaluates only the clock half.
//
// arm64 and riscv64 may fuse x*y + z into one multiply-add, which rounds
// once where amd64 rounds twice. Every product that could meet an add
// is therefore wrapped in an explicit float64(...) conversion, which
// forces the rounding on every architecture; `make cross` fails on any
// fused instruction left in this package.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/autovec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// levelParams is one cache level's pre-derived per-thread capacity and
// bandwidth share under a fixed (sharing, threads) pair.
type levelParams struct {
	name     string
	capacity float64 // usable per-thread capacity, bytes
	bw       float64 // per-thread bandwidth from this level, bytes/s
}

// uncoreCtx carries every config-level input of the uncore half. It is
// built only inside an uncore fill and read-only afterwards; it keeps
// derived values, never the machine it was built from.
type uncoreCtx struct {
	threads    int
	prec       prec.Precision
	scalarOnly bool
	vectorUnit bool // the machine has a vector unit

	// Memory system.
	dramBW   float64 // per-thread DRAM bandwidth under the placement
	memLatNs float64 // idle DRAM latency
	l2LatNs  float64
	l3LatNs  float64
	hasL3    bool
	mlp      float64

	// Cross-package memory traffic: seconds per byte of per-thread
	// traffic spent on the inter-socket and inter-node links. Zero —
	// and never added in — unless the placement spans more than one
	// package, so single-socket evaluations are bit-identical to the
	// pre-topology model.
	xlinkPerByte float64

	// Parallel-region costs at threads.
	syncSec float64 // per-region fork/join + straggler, seconds

	// Cache-level walk parameters at threads, in machine order
	// (innermost first; the walk iterates them outermost-in). seq is
	// the threads==1 variant SeqOnly kernels need.
	levels []levelParams
	seq    []levelParams
}

// uncoreTerms is one kernel's uncore half: what the clock half reads
// to finish the kernel's Breakdown.
type uncoreTerms struct {
	iters   float64 // Amdahl iterations per thread
	memSec  float64
	latSec  float64
	syncSec float64
	level   int // serving cache level, an index into Machine.Caches; -1 is DRAM
}

// uncoreHalf is one uncore memo entry: the config-level inputs, and the
// canonical suite's decisions and per-kernel terms at default problem
// sizes, in suite order. It is shared read-only.
type uncoreHalf struct {
	ctx   uncoreCtx
	dec   []autovec.Decision // nil under a scalar build
	terms []uncoreTerms
}

// uncoreKey identifies an uncore half: the Model's calibration, the
// machine's uncore fingerprint, and every Config field the half reads
// except ProblemN (the canonical table is at default sizes; other sizes
// reuse only ctx). Keying on the calibration's content rather than the
// *Model lets every fresh engine share the halves of the default
// calibration, while a Model with another calibration never reads them.
type uncoreKey struct {
	cal        uint64 // Model.calKey
	fp         uint64
	threads    int
	pol        placement.Policy
	prec       prec.Precision
	compiler   autovec.Compiler
	mode       autovec.Mode
	scalarOnly bool
}

// uncoreMemo memoizes uncore halves process-wide. Placement analysis
// runs only inside its fills. An entry is about 3.6 KB on a 64-bit
// host: 64 kernels × 48 B of terms, the context with its two level
// tables, the key and the map slot. At maxUncore entries, a new key
// evicts an arbitrary old one, which bounds the memo at about 3.7 MB.
// Errors are not kept (internal/memo).
var uncoreMemo = memo.Map[uncoreKey, *uncoreHalf]{Max: maxUncore}

const maxUncore = 1024

// UncoreStats reports uncore memo lookups so far: hits served from an
// existing entry, and misses that ran the uncore half.
func UncoreStats() (hits, misses uint64) { return uncoreMemo.Stats() }

// scalarBuildDecision is the decision every kernel gets under a scalar
// build — identical to what decide() used to construct per kernel.
var scalarBuildDecision = autovec.Decision{
	Vectorized: false, Mode: autovec.Scalar, Efficiency: 1, Reason: "scalar build",
}

// validate checks what every evaluation needs before any lookup.
func validate(cfg Config) error {
	if cfg.Machine == nil {
		return fmt.Errorf("perfmodel: nil machine")
	}
	if cfg.Threads < 1 {
		return fmt.Errorf("perfmodel: %d threads", cfg.Threads)
	}
	return nil
}

// uncoreFor returns cfg's uncore half; fp is cfg.Machine's
// UncoreFingerprint. cfg must have passed validate.
func (m *Model) uncoreFor(cfg Config, fp uint64) (*uncoreHalf, error) {
	k := uncoreKey{cal: m.calKey(), fp: fp, threads: cfg.Threads, pol: cfg.Placement, prec: cfg.Prec,
		compiler: cfg.Compiler, mode: cfg.Mode, scalarOnly: cfg.ScalarOnly}
	h, _, err := uncoreMemo.Get(k, func() (*uncoreHalf, error) { return m.fillUncore(cfg) })
	if err != nil {
		// An uncore twin's concurrent fill may have produced the error;
		// re-check so it names the machine that asked.
		if _, merr := placement.Map(cfg.Machine, cfg.Placement, cfg.Threads); merr != nil {
			err = merr
		}
	}
	return h, err
}

// fillUncore runs the placement analysis and the uncore half of the
// whole canonical suite under cfg.
func (m *Model) fillUncore(cfg Config) (*uncoreHalf, error) {
	h := &uncoreHalf{}
	if err := m.initUncoreCtx(&h.ctx, cfg); err != nil {
		return nil, err
	}
	specs := suite.All()
	pre := preFor(specs, 0)
	if !scalarBuild(cfg) {
		h.dec = decisionsFor(specs, cfg.Compiler, cfg.Mode)
	}
	h.terms = make([]uncoreTerms, len(specs))
	for i := range specs {
		m.uncoreTermsOf(&h.terms[i], &h.ctx, &specs[i], &pre[i], decisionAt(h.dec, i),
			m.patternEfficiency(pre[i].dom))
	}
	return h, nil
}

// scalarBuild reports whether cfg resolves to the same scalar Decision
// for every kernel (ScalarOnly, or no vector unit).
func scalarBuild(cfg Config) bool {
	return cfg.ScalarOnly || cfg.Machine.Vector.ISA == machine.NoVector
}

// decisionAt is kernel i's decision from a per-spec table, or the
// scalar-build decision when the table is nil.
func decisionAt(dec []autovec.Decision, i int) *autovec.Decision {
	if dec == nil {
		return &scalarBuildDecision
	}
	return &dec[i]
}

// initUncoreCtx analyses the placement and derives the config-level
// uncore inputs into x.
func (m *Model) initUncoreCtx(x *uncoreCtx, cfg Config) error {
	mach := cfg.Machine
	cores, err := placement.Map(mach, cfg.Placement, cfg.Threads)
	if err != nil {
		return err
	}
	sharing := placement.Analyze(mach, cores)
	*x = uncoreCtx{
		threads:    cfg.Threads,
		prec:       cfg.Prec,
		scalarOnly: cfg.ScalarOnly,
		vectorUnit: mach.Vector.ISA != machine.NoVector,
		memLatNs:   mach.MemLatencyNs,
		mlp:        mach.MLP,
	}

	// Per-thread DRAM bandwidth: the barrier waits for the slowest
	// thread, so the most crowded NUMA region sets the pace.
	sharersMem := sharing.MaxPerNUMA
	if sharersMem < 1 {
		sharersMem = 1
	}
	x.dramBW = math.Min(mach.CoreMemBW, mach.NUMABandwidth()/float64(sharersMem))

	// A placement spanning sockets pushes a calibrated fraction of each
	// thread's traffic over the coherent link (remote first-touch,
	// coherence); the most crowded socket's threads share its bandwidth.
	// Spanning nodes pays the same way on the network link.
	if sharing.SocketsUsed > 1 && mach.XSocketBW > 0 {
		x.xlinkPerByte += m.Cal.XSocketTrafficFrac *
			float64(sharing.MaxPerSocket) / mach.XSocketBW
	}
	if sharing.NodesUsed > 1 && mach.NodeBW > 0 {
		x.xlinkPerByte += m.Cal.XNodeTrafficFrac *
			float64(sharing.MaxPerNode) / mach.NodeBW
	}

	if l2 := mach.Cache("L2"); l2 != nil {
		x.l2LatNs = l2.LatencyNs
	}
	if l3 := mach.Cache("L3"); l3 != nil {
		x.l3LatNs = l3.LatencyNs
		x.hasL3 = true
	}

	if cfg.Threads > 1 {
		x.syncSec = m.syncOverhead(mach, cfg.Threads)
		// Barriers that span packages serialise over the links: one
		// inter-socket hop per extra socket, and a log2 all-reduce-style
		// up-down pass over the node network.
		if s := sharing.SocketsUsed; s > 1 && mach.XSocketLatencyNs > 0 {
			x.syncSec += float64(float64(s-1) * mach.XSocketLatencyNs * 1e-9)
		}
		if nd := sharing.NodesUsed; nd > 1 && mach.NodeLatencyNs > 0 {
			hops := float64(2 * allReduceRounds(nd))
			x.syncSec += float64(hops * mach.NodeLatencyNs * 1e-9)
		}
		x.seq = m.levelParamsFor(mach, sharing, 1)
	}
	x.levels = m.levelParamsFor(mach, sharing, cfg.Threads)
	return nil
}

// allReduceRounds is ⌈log₂ nodes⌉ for nodes ≥ 1, in integers.
func allReduceRounds(nodes int) int { return bits.Len(uint(nodes - 1)) }

// levelParamsFor derives each cache level's usable per-thread capacity
// and bandwidth share under the sharing pattern and thread count — the
// config-invariant half of the bandwidth walk.
func (m *Model) levelParamsFor(mach *machine.Machine, sh placement.Sharing,
	threads int) []levelParams {
	out := make([]levelParams, len(mach.Caches))
	for i := range mach.Caches {
		lvl := &mach.Caches[i]
		var sharers int
		agg := lvl.BWAggregate
		switch lvl.Shared {
		case machine.PerCore:
			sharers = 1
		case machine.PerCluster:
			sharers = sh.MaxPerCluster
		default:
			// A per-socket cache has one instance per package; its
			// sharers are the threads on the most crowded package (all
			// of them on a single-socket machine).
			sharers = threads
			if sh.MaxPerSocket > 0 && sh.MaxPerSocket < sharers {
				sharers = sh.MaxPerSocket
			}
			// A socket-level cache on a multi-NUMA die (the SG2042's
			// 64MB "system cache") is physically sliced across the
			// mesh: a placement that occupies few of the socket's NUMA
			// regions reaches only those regions' slices and their
			// bandwidth. This is the second mechanism (besides the DRAM
			// controllers) behind block placement's poor Table 1
			// scaling.
			if rp := mach.RegionsPerSocket(); rp > 1 && sh.MaxRegionsPerSocket > 0 {
				agg *= float64(sh.MaxRegionsPerSocket) / float64(rp)
			}
		}
		if sharers < 1 {
			sharers = 1
		}
		out[i] = levelParams{
			name:     lvl.Name,
			capacity: float64(lvl.SizeBytes) / float64(sharers) * m.Cal.CacheUsableFraction,
			bw:       math.Min(lvl.BWPerCore, agg/float64(sharers)),
		}
	}
	return out
}

// clockCtx carries every config-level input of the clock half. It is
// a few rates, rebuilt for each evaluation without any lookup.
type clockCtx struct {
	threads    int
	scalarOnly bool
	lanes      float64 // SIMD lanes at cfg.Prec
	vecRate    float64 // lanes * per-lane vector flops * clock (pre-efficiency)
	scalarRate float64
	intRate    float64
	lsuRate    float64 // LSU-limited element rate, elements/s
	rmwSec     float64 // one atomic RMW, seconds
	outOfOrder bool
	cores      int
	jitter     float64 // JitterFullOccupancy
}

// clockCtxFor derives cfg's clock rates.
func (m *Model) clockCtxFor(cfg Config) clockCtx {
	mach := cfg.Machine
	c := clockCtx{
		threads:    cfg.Threads,
		scalarOnly: cfg.ScalarOnly,
		lanes:      float64(mach.Vector.Lanes(cfg.Prec)),
		outOfOrder: mach.OutOfOrder,
		cores:      mach.Cores,
		jitter:     mach.JitterFullOccupancy,
	}
	clock := mach.ClockHz
	c.vecRate = c.lanes * mach.VectorFlopsPerCyclePerLane * clock
	c.scalarRate = mach.ScalarFlopsPerCycle * clock
	c.intRate = mach.IssueWidth * clock * 0.5 // integer ALU share
	lsuPerCycle := m.Cal.LSUPerCycle * mach.IssueWidth / 3.0
	c.lsuRate = lsuPerCycle * clock
	c.rmwSec = m.Cal.AtomicRMWCycles / mach.ClockHz
	return c
}

// SuiteTimes evaluates every spec under cfg through one compiled plan,
// hoisting the placement, sharing and hierarchy analysis — and the pure
// per-spec invariants — out of the per-kernel loop. The returned
// breakdowns are bit-identical to calling KernelTime per spec, in order.
func (m *Model) SuiteTimes(specs []kernels.Spec, cfg Config) ([]Breakdown, error) {
	p, err := m.SuitePlan(specs, cfg)
	if err != nil {
		return nil, err
	}
	return p.Times(nil), nil
}

// kernelThreads is the thread count a kernel effectively runs on.
func kernelThreads(spec *kernels.Spec, threads int) int {
	if spec.SeqOnly {
		return 1 // the recurrence executes sequentially regardless
	}
	return threads
}

// uncoreTermsOf is the uncore half of one kernel: everything that
// depends on the memory system and not on the clock, written through u.
func (m *Model) uncoreTermsOf(u *uncoreTerms, x *uncoreCtx, spec *kernels.Spec, pre *specPre,
	dec *autovec.Decision, patternEff float64) {
	threads := kernelThreads(spec, x.threads)

	// Amdahl: a serial fraction of each repetition (SORT's merge,
	// SCAN's cross-thread prefix) does not divide by the thread count.
	amdahl := spec.SerialFrac + (1-spec.SerialFrac)/float64(threads)
	itersPerThread := pre.iters * amdahl
	*u = uncoreTerms{iters: itersPerThread}

	vecOn := dec.VectorEffective() && !x.scalarOnly

	// --- memory hierarchy term -------------------------------------------
	levels := x.levels
	if threads != x.threads {
		levels = x.seq
	}
	level, bw, dramShare := servingLevel(levels, x.dramBW, pre.footElems*float64(x.prec.Bytes()), threads)
	u.level = level
	// Scalar code on a vector-designed memory pipeline extracts less
	// bandwidth (narrow accesses, fewer outstanding misses); the gap is
	// wider at FP32 where each scalar access moves half the bytes. This
	// is the mechanism behind Figure 2's FP32-vs-FP64 asymmetry.
	scalarBW := 1.0
	if x.vectorUnit && !vecOn {
		if x.prec == prec.F32 {
			scalarBW = m.Cal.ScalarMemBW32
		} else {
			scalarBW = m.Cal.ScalarMemBW64
		}
	} else if vecOn {
		// Inefficient vector code (masked epilogues, gathers) also
		// wastes memory throughput, mildly coupled to lane efficiency —
		// this is what lets GCC's scalar path beat Clang's poor vector
		// code on JACOBI_2D (the Figure 3 surprise).
		scalarBW = 0.5 + float64(0.5*dec.Efficiency)
		if dec.Mode == autovec.VLA {
			// The per-strip vsetvli renegotiation also costs achieved
			// bandwidth, so "VLS tends to outperform VLA" holds for
			// memory-bound kernels too.
			scalarBW *= m.Cal.VLAFactor
		}
	}
	bytesPerIter := trafficPerIterPre(pre, x.prec, dramShare)
	u.memSec = itersPerThread * bytesPerIter / (bw * patternEff * scalarBW)
	if threads > 1 && x.xlinkPerByte > 0 {
		// Cross-package share of the traffic, serialised on the links.
		u.memSec += float64(itersPerThread * bytesPerIter * x.xlinkPerByte)
	}

	// --- latency term (gather/random under limited MLP) --------------------
	served := "MEM"
	if level >= 0 {
		served = levels[level].name
	}
	u.latSec = latencyTerm(x, pre.dom, served, itersPerThread)

	// --- parallel-region overhead ---------------------------------------------
	if threads > 1 {
		u.syncSec = float64(spec.Regions) * x.syncSec
	}
}

// clockTerms is the clock half of one kernel: the compute, issue and
// atomic terms over its uncore half u, and the combined per-repetition
// and total time.
func (m *Model) clockTerms(c *clockCtx, spec *kernels.Spec, pre *specPre, dec *autovec.Decision,
	u *uncoreTerms) (comp, issue, atomic, perRep, seconds float64) {
	threads := kernelThreads(spec, c.threads)
	vecOn := dec.VectorEffective() && !c.scalarOnly

	// --- compute term ---------------------------------------------------
	var frate float64 // flops/second
	if vecOn {
		frate = c.vecRate * dec.Efficiency
		if dec.Mode == autovec.VLA {
			// "VLS tends to outperform VLA on the C920": the per-strip
			// vsetvli and unavailable full unrolling cost a slice.
			frate *= m.Cal.VLAFactor
		}
	} else {
		frate = c.scalarRate
	}
	comp = float64(u.iters * (pre.flops/frate + pre.intOps/c.intRate))

	// --- instruction / LSU issue term ------------------------------------
	elemsPerInst := 1.0
	if vecOn {
		elemsPerInst = c.lanes * dec.Efficiency
		if dec.Mode == autovec.VLA {
			elemsPerInst *= m.Cal.VLAFactor
		}
	}
	issue = u.iters * (pre.accesses / elemsPerInst) / c.lsuRate

	// --- combine per-thread time -------------------------------------------
	var perThread float64
	if c.outOfOrder {
		perThread = max(comp, issue, u.memSec) + u.latSec
	} else {
		// In-order cores overlap little: costs add.
		perThread = comp + issue + u.memSec + u.latSec
	}

	// --- atomic contention ---------------------------------------------------
	atomic = m.atomicTerm(c.rmwSec, pre, threads)
	perThread = max(perThread, atomic)

	perRep = perThread + u.syncSec
	if threads == c.cores && threads > 1 {
		perRep *= c.jitter
	}
	return comp, issue, atomic, perRep, perRep * float64(spec.Reps)
}

// breakdown writes one kernel's Breakdown through b from its uncore
// half u and the clock half. mach names the serving level; it is the
// configuration's machine, whose cache names the uncore key covers.
func (m *Model) breakdown(b *Breakdown, c *clockCtx, mach *machine.Machine, spec *kernels.Spec,
	pre *specPre, dec *autovec.Decision, u *uncoreTerms) {
	*b = Breakdown{Decision: *dec, MemSec: u.memSec, LatSec: u.latSec, SyncSec: u.syncSec,
		ServedBy: "MEM"}
	if u.level >= 0 {
		b.ServedBy = mach.Caches[u.level].Name
	}
	b.CompSec, b.IssueSec, b.AtomicSec, b.PerRep, b.Seconds = m.clockTerms(c, spec, pre, dec, u)
}

// servingLevel walks the pre-derived level parameters for the kernel's
// working set (footBytes at the evaluation's precision): each level
// covers the fraction of the set its per-thread capacity share holds,
// the rest falls through, and the effective bandwidth is the harmonic
// blend of the levels weighted by coverage (so capacity cliffs are
// smooth, as on real hardware). Returns the index of the innermost
// level fully holding the set (or -1, DRAM), the blended bandwidth, and
// the fraction of traffic served by DRAM.
func servingLevel(levels []levelParams, dramBW, footBytes float64, threads int) (int, float64, float64) {
	wsPerThread := footBytes / float64(threads)

	served := -1
	eff := dramBW
	dramShare := 1.0
	// Walk from the outermost cache inwards, blending at each step.
	for i := len(levels) - 1; i >= 0; i-- {
		lp := &levels[i]
		cov := 1.0
		if wsPerThread > 0 {
			cov = math.Min(1, lp.capacity/wsPerThread)
		}
		eff = 1 / (cov/lp.bw + (1-cov)/eff)
		dramShare *= 1 - cov
		if cov >= 0.999 {
			served = i
		}
	}
	return served, eff, dramShare
}
