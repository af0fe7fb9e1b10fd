package perfmodel

// Batched suite evaluation. A full suite run evaluates all 64 kernels
// under one Config, but most of KernelTime's work — the thread-to-core
// placement, the sharing analysis it induces, the per-level capacity
// and bandwidth shares of the memory-hierarchy walk, the DRAM slice,
// and the per-region synchronisation cost — depends only on the
// configuration, not the kernel. evalCtx hoists all of it out of the
// per-kernel loop so SuiteTimes pays the placement/sharing analysis
// once per configuration instead of once per kernel. KernelTime builds
// a one-shot context and evaluates through the same code path, so a
// batched evaluation is bit-identical to 64 individual KernelTime
// calls (batch_test.go proves it field by field).

import (
	"fmt"
	"math"

	"repro/internal/autovec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/placement"
	"repro/internal/prec"
)

// levelParams is one cache level's pre-derived per-thread capacity and
// bandwidth share under a fixed (sharing, threads) pair.
type levelParams struct {
	name     string
	capacity float64 // usable per-thread capacity, bytes
	bw       float64 // per-thread bandwidth from this level, bytes/s
}

// evalCtx carries every config-dependent, kernel-independent input of
// one evaluation. It is built once per (Model, Config) and is only
// used by the goroutine that built it.
type evalCtx struct {
	cfg  Config
	mach *machine.Machine

	sharing placement.Sharing

	// Compute/issue rates.
	clock      float64
	lanes      float64 // SIMD lanes at cfg.Prec
	vecRate    float64 // lanes * per-lane vector flops * clock (pre-efficiency)
	scalarRate float64
	intRate    float64
	lsuRate    float64 // LSU-limited element rate, elements/s

	// Compiler decision shortcut: a scalar build (ScalarOnly or no
	// vector unit) resolves to the same Decision for every kernel.
	scalarBuild bool

	// Memory system.
	dramBW   float64 // per-thread DRAM bandwidth under the placement
	memLatNs float64 // idle DRAM latency
	l2LatNs  float64
	l3LatNs  float64
	hasL3    bool
	rmwSec   float64 // one atomic RMW, seconds

	// Cross-package memory traffic: seconds per byte of per-thread
	// traffic spent on the inter-socket and inter-node links. Zero —
	// and never added in — unless the placement spans more than one
	// package, so single-socket evaluations are bit-identical to the
	// pre-topology model.
	xlinkPerByte float64

	// Parallel-region costs at cfg.Threads.
	syncSec float64 // per-region fork/join + straggler, seconds

	// Cache-level walk parameters at cfg.Threads, in machine order
	// (innermost first; the walk iterates them outermost-in). seq is
	// the threads==1 variant SeqOnly kernels need, built on demand.
	levels []levelParams
	seq    []levelParams
}

// scalarBuildDecision is the decision every kernel gets under a scalar
// build — identical to what decide() used to construct per kernel.
var scalarBuildDecision = autovec.Decision{
	Vectorized: false, Mode: autovec.Scalar, Efficiency: 1, Reason: "scalar build",
}

// sharingCache memoizes the placement analysis process-wide, keyed by
// the machine's topology fingerprint plus policy and thread count.
// Placement reads only the topology, so every clock, cache or bandwidth
// variant of a machine — each grid point of a cold campaign — shares
// its base's entry instead of re-running the Map/Analyze pair, a core
// enumeration plus per-domain histograms and the dominant allocator of
// evalCtx construction. The cached Sharing is shared read-only across
// contexts (the model only reads its scalar fields and hands it to
// levelParamsFor, which reads too). Errors are not kept (internal/memo).
var sharingCache = memo.Map[sharingKey, placement.Sharing]{Max: maxSharings}

type sharingKey struct {
	topo    uint64
	pol     placement.Policy
	threads int
}

// maxSharings bounds the memo; past it, a new triple evicts an
// arbitrary old one.
const maxSharings = 4096

func sharingFor(mach *machine.Machine, pol placement.Policy, threads int) (placement.Sharing, error) {
	k := sharingKey{mach.TopologyFingerprint(), pol, threads}
	sh, _, err := sharingCache.Get(k, func() (placement.Sharing, error) {
		cores, err := placement.Map(mach, pol, threads)
		if err != nil {
			return placement.Sharing{}, err
		}
		return placement.Analyze(mach, cores), nil
	})
	if err != nil {
		// A topology twin's concurrent fill may have produced the error;
		// re-check so it names the machine that asked.
		if _, merr := placement.Map(mach, pol, threads); merr != nil {
			err = merr
		}
	}
	return sh, err
}

// newEvalCtx validates cfg and derives the kernel-independent inputs.
func (m *Model) newEvalCtx(cfg Config) (*evalCtx, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("perfmodel: nil machine")
	}
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("perfmodel: %d threads", cfg.Threads)
	}
	mach := cfg.Machine
	sharing, err := sharingFor(mach, cfg.Placement, cfg.Threads)
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{
		cfg:     cfg,
		mach:    mach,
		sharing: sharing,
		clock:   mach.ClockHz,
	}

	ctx.lanes = float64(mach.Vector.Lanes(cfg.Prec))
	ctx.vecRate = ctx.lanes * mach.VectorFlopsPerCyclePerLane * ctx.clock
	ctx.scalarRate = mach.ScalarFlopsPerCycle * ctx.clock
	ctx.intRate = mach.IssueWidth * ctx.clock * 0.5 // integer ALU share
	lsuPerCycle := m.Cal.LSUPerCycle * mach.IssueWidth / 3.0
	ctx.lsuRate = lsuPerCycle * ctx.clock

	ctx.scalarBuild = cfg.ScalarOnly || mach.Vector.ISA == machine.NoVector

	// Per-thread DRAM bandwidth: the barrier waits for the slowest
	// thread, so the most crowded NUMA region sets the pace.
	sharersMem := ctx.sharing.MaxPerNUMA
	if sharersMem < 1 {
		sharersMem = 1
	}
	ctx.dramBW = math.Min(mach.CoreMemBW, mach.NUMABandwidth()/float64(sharersMem))

	// A placement spanning sockets pushes a calibrated fraction of each
	// thread's traffic over the coherent link (remote first-touch,
	// coherence); the most crowded socket's threads share its bandwidth.
	// Spanning nodes pays the same way on the network link.
	if ctx.sharing.SocketsUsed > 1 && mach.XSocketBW > 0 {
		ctx.xlinkPerByte += m.Cal.XSocketTrafficFrac *
			float64(ctx.sharing.MaxPerSocket) / mach.XSocketBW
	}
	if ctx.sharing.NodesUsed > 1 && mach.NodeBW > 0 {
		ctx.xlinkPerByte += m.Cal.XNodeTrafficFrac *
			float64(ctx.sharing.MaxPerNode) / mach.NodeBW
	}

	ctx.memLatNs = mach.MemLatencyNs
	if l2 := mach.Cache("L2"); l2 != nil {
		ctx.l2LatNs = l2.LatencyNs
	}
	if l3 := mach.Cache("L3"); l3 != nil {
		ctx.l3LatNs = l3.LatencyNs
		ctx.hasL3 = true
	}
	ctx.rmwSec = m.Cal.AtomicRMWCycles / mach.ClockHz

	if cfg.Threads > 1 {
		ctx.syncSec = m.syncOverhead(mach, cfg.Threads)
		// Barriers that span packages serialise over the links: one
		// inter-socket hop per extra socket, and a log2 all-reduce-style
		// up-down pass over the node network.
		if s := ctx.sharing.SocketsUsed; s > 1 && mach.XSocketLatencyNs > 0 {
			ctx.syncSec += float64(s-1) * mach.XSocketLatencyNs * 1e-9
		}
		if nd := ctx.sharing.NodesUsed; nd > 1 && mach.NodeLatencyNs > 0 {
			hops := 2 * math.Ceil(math.Log2(float64(nd)))
			ctx.syncSec += hops * mach.NodeLatencyNs * 1e-9
		}
	}

	ctx.levels = m.levelParamsFor(mach, ctx.sharing, cfg.Threads)
	return ctx, nil
}

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

// levelsFor returns the walk parameters for a kernel's effective thread
// count: the shared per-config set, or the lazily built single-thread
// variant a SeqOnly kernel needs under a multi-threaded config.
func (m *Model) levelsFor(ctx *evalCtx, threads int) []levelParams {
	if threads == ctx.cfg.Threads {
		return ctx.levels
	}
	if ctx.seq == nil {
		ctx.seq = m.levelParamsFor(ctx.mach, ctx.sharing, threads)
	}
	return ctx.seq
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

// kernelTime is the one-shot per-kernel path: it derives the spec's
// invariants and compiler decision in place and evaluates through the
// same arithmetic the planned path uses.
func (m *Model) kernelTime(ctx *evalCtx, spec kernels.Spec) Breakdown {
	pre := preOf(&spec, ctx.cfg.ProblemN)
	dec := scalarBuildDecision
	if !ctx.scalarBuild {
		dec = autovec.AnalyzeKernel(ctx.cfg.Compiler, spec.Loop, ctx.cfg.Mode)
	}
	var b Breakdown
	m.kernelTimePre(&b, ctx, &spec, &pre, dec, m.patternEfficiency(pre.dom))
	return b
}

// kernelTimePre is the per-kernel half of the model: everything
// KernelTime used to compute that actually depends on the kernel, with
// the spec's pure invariants supplied by the caller (a one-shot preOf,
// or a SuitePlan's memoized table). It writes the result through b.
func (m *Model) kernelTimePre(b *Breakdown, ctx *evalCtx, spec *kernels.Spec, pre *specPre,
	dec autovec.Decision, patternEff float64) {
	cfg := ctx.cfg
	mach := ctx.mach

	threads := cfg.Threads
	if spec.SeqOnly {
		threads = 1 // the recurrence executes sequentially regardless
	}

	// Amdahl: a serial fraction of each repetition (SORT's merge,
	// SCAN's cross-thread prefix) does not divide by the thread count.
	amdahl := spec.SerialFrac + (1-spec.SerialFrac)/float64(threads)
	itersPerThread := pre.iters * amdahl
	*b = Breakdown{Decision: dec}

	vecOn := dec.VectorEffective() && !cfg.ScalarOnly

	// --- compute term ---------------------------------------------------
	flopsPerIter := pre.flops
	intPerIter := pre.intOps
	var frate float64 // flops/second
	if vecOn {
		frate = ctx.vecRate * dec.Efficiency
		if dec.Mode == autovec.VLA {
			// "VLS tends to outperform VLA on the C920": the per-strip
			// vsetvli and unavailable full unrolling cost a slice.
			frate *= m.Cal.VLAFactor
		}
	} else {
		frate = ctx.scalarRate
	}
	b.CompSec = itersPerThread * (flopsPerIter/frate + intPerIter/ctx.intRate)

	// --- instruction / LSU issue term ------------------------------------
	accesses := pre.accesses
	elemsPerInst := 1.0
	if vecOn {
		elemsPerInst = ctx.lanes * dec.Efficiency
		if dec.Mode == autovec.VLA {
			elemsPerInst *= m.Cal.VLAFactor
		}
	}
	b.IssueSec = itersPerThread * (accesses / elemsPerInst) / ctx.lsuRate

	// --- memory hierarchy term -------------------------------------------
	served, bw, dramShare := m.servingLevel(ctx, pre.footElems*float64(cfg.Prec.Bytes()), threads)
	b.ServedBy = served
	b.SharedMemBW = bw
	// Scalar code on a vector-designed memory pipeline extracts less
	// bandwidth (narrow accesses, fewer outstanding misses); the gap is
	// wider at FP32 where each scalar access moves half the bytes. This
	// is the mechanism behind Figure 2's FP32-vs-FP64 asymmetry.
	scalarBW := 1.0
	if mach.Vector.ISA != machine.NoVector && !vecOn {
		if cfg.Prec == prec.F32 {
			scalarBW = m.Cal.ScalarMemBW32
		} else {
			scalarBW = m.Cal.ScalarMemBW64
		}
	} else if vecOn {
		// Inefficient vector code (masked epilogues, gathers) also
		// wastes memory throughput, mildly coupled to lane efficiency —
		// this is what lets GCC's scalar path beat Clang's poor vector
		// code on JACOBI_2D (the Figure 3 surprise).
		scalarBW = 0.5 + 0.5*dec.Efficiency
		if dec.Mode == autovec.VLA {
			// The per-strip vsetvli renegotiation also costs achieved
			// bandwidth, so "VLS tends to outperform VLA" holds for
			// memory-bound kernels too.
			scalarBW *= m.Cal.VLAFactor
		}
	}
	bytesPerIter := trafficPerIterPre(pre, cfg.Prec, dramShare)
	b.MemSec = itersPerThread * bytesPerIter / (bw * patternEff * scalarBW)
	if threads > 1 && ctx.xlinkPerByte > 0 {
		// Cross-package share of the traffic, serialised on the links.
		b.MemSec += itersPerThread * bytesPerIter * ctx.xlinkPerByte
	}

	// --- latency term (gather/random under limited MLP) --------------------
	b.LatSec = m.latencyTerm(ctx, pre.dom, served, itersPerThread)

	// --- combine per-thread time -------------------------------------------
	var perThread float64
	if mach.OutOfOrder {
		perThread = math.Max(b.CompSec, math.Max(b.IssueSec, b.MemSec)) + b.LatSec
	} else {
		// In-order cores overlap little: costs add.
		perThread = b.CompSec + b.IssueSec + b.MemSec + b.LatSec
	}

	// --- atomic contention ---------------------------------------------------
	b.AtomicSec = m.atomicTerm(ctx, pre, threads)
	perThread = math.Max(perThread, b.AtomicSec)

	// --- parallel-region overhead ---------------------------------------------
	if threads > 1 {
		b.SyncSec = float64(spec.Regions) * ctx.syncSec
	}

	perRep := perThread + b.SyncSec
	if threads == mach.Cores && threads > 1 {
		perRep *= mach.JitterFullOccupancy
	}
	b.PerRep = perRep
	b.Seconds = perRep * float64(spec.Reps)
}

// servingLevel walks the pre-derived level parameters for the kernel's
// working set (footBytes at the evaluation's precision): each level
// covers the fraction of the set its per-thread capacity share holds,
// the rest falls through, and the effective bandwidth is the harmonic
// blend of the levels weighted by coverage (so capacity cliffs are
// smooth, as on real hardware). Returns the innermost level fully
// holding the set (or "MEM"), the blended bandwidth, and the fraction
// of traffic served by DRAM.
func (m *Model) servingLevel(ctx *evalCtx, footBytes float64, threads int) (string, float64, float64) {
	wsPerThread := footBytes / float64(threads)
	levels := m.levelsFor(ctx, threads)

	served := "MEM"
	eff := ctx.dramBW
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
			served = lp.name
		}
	}
	return served, eff, dramShare
}
