// Package core is the study engine — the paper's primary contribution
// re-implemented as a library. It orchestrates suite runs over machine/
// thread/placement/precision/compiler configurations, averages repeated
// "measurements" (deterministic model evaluations with seeded
// measurement noise, standing in for the paper's five-run averages),
// and derives the quantities the paper reports: per-kernel performance
// ratios against a baseline, per-class averages with min/max whiskers,
// speedups and parallel efficiencies.
//
// Each experiment of the paper has a constructor here: Figure1,
// ScalingTable (Tables 1-3), Figure2, Figure3, Table4, Figure4/5
// (single-core x86) and Figure6/7 (multi-threaded x86).
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/autovec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
	"repro/internal/suite"
)

// Study evaluates experiments against the performance model. A Study
// is safe for concurrent use: suite evaluations are memoized behind a
// config-keyed cache (see cache.go) and the experiment constructors
// fan their per-configuration work out over Workers goroutines.
// Because all noise seeding is derived from the configuration, results
// are bit-identical whatever the Workers and NoCache settings.
type Study struct {
	Model *perfmodel.Model
	// Runs is the number of repeated measurements averaged per
	// configuration ("all reported results are averaged over five runs").
	Runs int
	// Noise is the relative std-dev of per-run measurement noise; 0
	// gives exact model outputs.
	Noise float64
	// Seed makes noisy runs reproducible.
	Seed int64
	// Workers bounds how many suite configurations an experiment
	// constructor evaluates concurrently; <= 1 evaluates serially on
	// the calling goroutine.
	Workers int
	// NoCache bypasses the suite memoization (benchmarks use it to
	// measure the uncached baseline).
	NoCache bool

	// cache is shared between a Study and its WithWorkers views; a
	// zero-literal Study has none and evaluates uncached.
	cache *suiteCache
}

// NewStudy returns a Study with the paper's defaults: five runs with a
// small seeded measurement noise, serial evaluation.
func NewStudy() *Study {
	return &Study{Model: perfmodel.New(), Runs: 5, Noise: 0.01, Seed: 42,
		cache: &suiteCache{}}
}

// WithWorkers returns a view of st evaluating under a different worker
// bound while sharing st's memoization cache and knobs. A batch runner
// that fans out across experiments uses it to keep the product of
// outer and inner concurrency within one global bound.
func (st *Study) WithWorkers(workers int) *Study {
	v := *st
	v.Workers = workers
	return &v
}

// Measurement is one kernel's averaged time under one configuration.
// The suite cache does not store Measurements: it keeps only each
// configuration's per-kernel seconds, in suite.All() order, and
// RunSuite (or the snapshot encoder) joins them with the suite's
// kernel names and classes when a caller asks.
type Measurement struct {
	Kernel  string
	Class   kernels.Class
	Seconds float64
}

// RunSuite measures every kernel under cfg, averaging Runs noisy
// evaluations. Results are memoized per canonicalized configuration
// (unless NoCache is set); noise is seeded from the configuration, so
// cached and freshly evaluated results are bit-identical. The result
// is a fresh slice the caller owns, in suite.All() order.
func (st *Study) RunSuite(cfg perfmodel.Config) ([]Measurement, error) {
	var secs []float64
	var err error
	if st.NoCache || st.cache == nil {
		// Uncached seconds live only until they are joined with the
		// suite below, so they stay in a stack buffer and this path
		// allocates just the result.
		var buf [64]float64
		secs, err = st.runSuiteUncached(cfg, buf[:0])
	} else {
		secs, err = st.runSuiteShared(cfg, st.suiteKeyFor(cfg))
	}
	if err != nil {
		return nil, err
	}
	specs := suite.All()
	out := make([]Measurement, len(secs))
	for i, s := range secs {
		out[i] = Measurement{Kernel: specs[i].Name, Class: specs[i].Class, Seconds: s}
	}
	return out, nil
}

// runSuiteShared returns cfg's per-kernel seconds in suite order. With
// the cache on, the slice is the cache entry's own and the caller must
// treat it as read-only; the campaign planner reads it positionally.
// key must be st.suiteKeyFor(cfg) (or suiteKeyFP with the machine's
// fingerprint).
func (st *Study) runSuiteShared(cfg perfmodel.Config, key suiteKey) ([]float64, error) {
	if st.NoCache || st.cache == nil {
		return st.runSuiteUncached(cfg, nil)
	}
	e := st.cache.entry(key)
	e.once.Do(func() {
		e.secs, e.err = st.runSuiteUncached(cfg, nil)
		e.done.Store(true)
	})
	return e.secs, e.err
}

// breakdownPool recycles the per-configuration Breakdown buffer: the
// model's intermediate terms are consumed immediately into seconds
// and never escape a single runSuiteUncached call.
var breakdownPool = sync.Pool{
	New: func() any { b := make([]perfmodel.Breakdown, 0, 64); return &b },
}

// runSuiteUncached evaluates cfg and returns each kernel's averaged
// seconds in suite.All() order, written into dst when it has the
// capacity (pass nil to allocate).
func (st *Study) runSuiteUncached(cfg perfmodel.Config, dst []float64) ([]float64, error) {
	specs := suite.All()
	// Compiled evaluation: one plan per configuration, so the
	// placement/sharing analysis and the per-spec invariants are
	// resolved once instead of once per kernel. The planned path is
	// bit-identical to per-kernel KernelTime.
	plan, err := st.Model.SuitePlan(specs, cfg)
	if err != nil {
		label := "<nil machine>"
		if cfg.Machine != nil {
			label = cfg.Machine.Label
		}
		return nil, fmt.Errorf("core: suite on %s: %w", label, err)
	}
	buf := breakdownPool.Get().(*[]perfmodel.Breakdown)
	bds := plan.Times(*buf)
	if cap(dst) >= len(specs) {
		dst = dst[:len(specs)]
	} else {
		dst = make([]float64, len(specs))
	}
	runs := st.Runs
	if runs < 1 {
		runs = 1
	}
	noise := seededNoise(st.Seed ^ configSeed(cfg))
	for i := range specs {
		sum := 0.0
		for r := 0; r < runs; r++ {
			sum += bds[i].Seconds * (1 + st.Noise*noise.rng.NormFloat64())
		}
		dst[i] = sum / float64(runs)
	}
	noisePool.Put(noise)
	*buf = bds
	breakdownPool.Put(buf)
	return dst, nil
}

// configSeed hashes distinguishing config fields so different
// configurations draw different (but reproducible) noise.
func configSeed(cfg perfmodel.Config) int64 {
	h := int64(17)
	h = h*31 + int64(cfg.Threads)
	h = h*31 + int64(cfg.Placement)
	h = h*31 + int64(cfg.Prec)
	h = h*31 + int64(cfg.Compiler)
	h = h*31 + int64(cfg.Mode)
	if cfg.ScalarOnly {
		h = h*31 + 1
	}
	for _, c := range cfg.Machine.Label {
		h = h*31 + int64(c)
	}
	return h
}

// Ratios computes per-kernel performance ratios base/test: > 1 means
// the test configuration is faster than the baseline.
func Ratios(base, test []Measurement) (map[string]float64, error) {
	if len(base) != len(test) {
		return nil, fmt.Errorf("core: mismatched measurement sets (%d vs %d)",
			len(base), len(test))
	}
	baseBy := make(map[string]float64, len(base))
	for _, m := range base {
		baseBy[m.Kernel] = m.Seconds
	}
	out := make(map[string]float64, len(test))
	for _, m := range test {
		b, ok := baseBy[m.Kernel]
		if !ok {
			return nil, fmt.Errorf("core: kernel %s missing from baseline", m.Kernel)
		}
		if m.Seconds <= 0 {
			return nil, fmt.Errorf("core: kernel %s has non-positive time", m.Kernel)
		}
		out[m.Kernel] = b / m.Seconds
	}
	return out, nil
}

// ClassSummaries aggregates per-kernel ratios into per-class bar+whisker
// summaries, the form every figure in the paper uses.
func ClassSummaries(ratios map[string]float64) map[kernels.Class]stats.Summary {
	byClass := make(map[kernels.Class][]float64)
	for _, spec := range suite.All() {
		if r, ok := ratios[spec.Name]; ok {
			byClass[spec.Class] = append(byClass[spec.Class], r)
		}
	}
	out := make(map[kernels.Class]stats.Summary, len(byClass))
	for c, rs := range byClass {
		out[c] = stats.Summarize(rs)
	}
	return out
}

// Series is one bar group of a class-level figure.
type Series struct {
	Label   string
	ByClass map[kernels.Class]stats.Summary
}

// Figure is a class-level bar+whisker figure.
type Figure struct {
	Title    string
	Baseline string
	Series   []Series
}

// sgConfig builds the SG2042 configuration the paper's best practice
// uses (XuanTie GCC, VLS).
func sgConfig(threads int, pol placement.Policy, p prec.Precision) perfmodel.Config {
	return perfmodel.Config{
		Machine: machine.SG2042(), Threads: threads, Placement: pol, Prec: p,
		Compiler: autovec.GCCXuanTie, Mode: autovec.VLS,
	}
}

func mustMachineCfg(m *machine.Machine, threads int, p prec.Precision) perfmodel.Config {
	return perfmodel.Config{
		Machine: m, Threads: threads, Placement: placement.Block, Prec: p,
		Compiler: perfmodel.DefaultCompilerFor(m), Mode: autovec.VLS,
	}
}

// Figure1 reproduces the single-core RISC-V comparison: V2 (FP32), V1
// (FP64+FP32) and SG2042 (FP64+FP32), all relative to the V2 at FP64.
func (st *Study) Figure1() (Figure, error) {
	base, err := st.RunSuite(mustMachineCfg(machine.VisionFiveV2(), 1, prec.F64))
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Title:    "Figure 1: single core comparison baselined against VisionFive V2 FP64",
		Baseline: "V2 FP64",
	}
	cases := []struct {
		label string
		cfg   perfmodel.Config
	}{
		{"V2 FP32", mustMachineCfg(machine.VisionFiveV2(), 1, prec.F32)},
		{"V1 FP64", mustMachineCfg(machine.VisionFiveV1(), 1, prec.F64)},
		{"V1 FP32", mustMachineCfg(machine.VisionFiveV1(), 1, prec.F32)},
		{"SG2042 FP64", sgConfig(1, placement.Block, prec.F64)},
		{"SG2042 FP32", sgConfig(1, placement.Block, prec.F32)},
	}
	series := make([]Series, len(cases))
	err = par.ForEach(len(cases), st.Workers, func(i int) error {
		test, err := st.RunSuite(cases[i].cfg)
		if err != nil {
			return err
		}
		ratios, err := Ratios(base, test)
		if err != nil {
			return err
		}
		series[i] = Series{Label: cases[i].label, ByClass: ClassSummaries(ratios)}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig.Series = series
	return fig, nil
}

// ScalingCell is one (threads, class) entry of Tables 1-3.
type ScalingCell struct {
	Speedup float64
	PE      float64
}

// ScalingTable reproduces Tables 1-3: SG2042 FP32 speedup and parallel
// efficiency per class while scaling threads under one placement policy.
type ScalingTableResult struct {
	Title   string
	Policy  placement.Policy
	Threads []int
	Cells   map[int]map[kernels.Class]ScalingCell
}

// TableThreads are the thread counts the paper's tables sweep.
var TableThreads = []int{2, 4, 8, 16, 32, 64}

// ScalingTable runs the Table 1/2/3 experiment for a placement policy.
func (st *Study) ScalingTable(pol placement.Policy) (ScalingTableResult, error) {
	titles := map[placement.Policy]string{
		placement.Block:         "Table 1: speed up and parallel efficiency, block allocation",
		placement.CyclicNUMA:    "Table 2: speed up and parallel efficiency, cyclic allocation",
		placement.ClusterCyclic: "Table 3: speed up and parallel efficiency, cluster-aware cyclic allocation",
	}
	res := ScalingTableResult{
		Title: titles[pol], Policy: pol, Threads: TableThreads,
		Cells: make(map[int]map[kernels.Class]ScalingCell),
	}
	// Baseline: one thread ("multi-threaded runs are undertaken in
	// single precision, FP32").
	base, err := st.RunSuite(sgConfig(1, pol, prec.F32))
	if err != nil {
		return res, err
	}
	baseBy := make(map[string]Measurement, len(base))
	for _, m := range base {
		baseBy[m.Kernel] = m
	}
	rows := make([]map[kernels.Class]ScalingCell, len(TableThreads))
	err = par.ForEach(len(TableThreads), st.Workers, func(i int) error {
		threads := TableThreads[i]
		test, err := st.RunSuite(sgConfig(threads, pol, prec.F32))
		if err != nil {
			return err
		}
		perClass := make(map[kernels.Class][]float64)
		for _, m := range test {
			b := baseBy[m.Kernel]
			perClass[m.Class] = append(perClass[m.Class], stats.Speedup(b.Seconds, m.Seconds))
		}
		row := make(map[kernels.Class]ScalingCell, len(perClass))
		for c, sps := range perClass {
			sp := stats.Mean(sps)
			row[c] = ScalingCell{Speedup: sp, PE: stats.ParallelEfficiency(sp, threads)}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, threads := range TableThreads {
		res.Cells[threads] = rows[i]
	}
	return res, nil
}

// Figure2 reproduces the single-core vectorisation study: vector vs
// scalar builds on the C920, per class, at both precisions.
func (st *Study) Figure2() (Figure, error) {
	fig := Figure{
		Title:    "Figure 2: maximum single core speedup per class when enabling vectorisation on the C920",
		Baseline: "scalar build (per precision)",
	}
	precs := []prec.Precision{prec.F32, prec.F64}
	series := make([]Series, len(precs))
	err := par.ForEach(len(precs), st.Workers, func(i int) error {
		p := precs[i]
		scalarCfg := sgConfig(1, placement.Block, p)
		scalarCfg.ScalarOnly = true
		base, err := st.RunSuite(scalarCfg)
		if err != nil {
			return err
		}
		test, err := st.RunSuite(sgConfig(1, placement.Block, p))
		if err != nil {
			return err
		}
		ratios, err := Ratios(base, test)
		if err != nil {
			return err
		}
		series[i] = Series{
			Label:   fmt.Sprintf("RVV vs scalar, %v", p),
			ByClass: ClassSummaries(ratios),
		}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig.Series = series
	return fig, nil
}

// KernelBars is a per-kernel figure (Figure 3).
type KernelBars struct {
	Title    string
	Baseline string
	Kernels  []string
	// Values[label][i] is the ratio for Kernels[i].
	Series []struct {
		Label  string
		Ratios []float64
	}
}

// Figure3 reproduces the Clang VLA/VLS vs GCC comparison over the
// Polybench kernels at FP32 on a single C920 core.
func (st *Study) Figure3() (KernelBars, error) {
	poly := suite.ByClass(kernels.Polybench)
	names := make([]string, len(poly))
	for i, s := range poly {
		names[i] = s.Name
	}
	sort.Strings(names)
	kb := KernelBars{
		Title:    "Figure 3: Clang VLA and VLS vs GCC, Polybench kernels, FP32, single core",
		Baseline: "XuanTie GCC (VLS)",
		Kernels:  names,
	}
	specs := make([]kernels.Spec, len(names))
	for i, name := range names {
		spec, err := suite.ByName(name)
		if err != nil {
			return kb, err
		}
		specs[i] = spec
	}
	gccCfg := sgConfig(1, placement.Block, prec.F32)
	// The GCC baseline is mode-independent: one evaluation per kernel,
	// shared by both Clang modes. Each compiler configuration is one
	// batched suite pass over the Polybench specs, so the placement and
	// hierarchy analysis runs three times, not 3x13 times.
	modes := []autovec.Mode{autovec.VLA, autovec.VLS}
	cfgs := []perfmodel.Config{gccCfg}
	for _, mode := range modes {
		clangCfg := gccCfg
		clangCfg.Compiler = autovec.Clang16
		clangCfg.Mode = mode
		cfgs = append(cfgs, clangCfg)
	}
	times := make([][]perfmodel.Breakdown, len(cfgs))
	err := par.ForEach(len(cfgs), st.Workers, func(i int) error {
		bds, err := st.Model.SuiteTimes(specs, cfgs[i])
		if err != nil {
			return err
		}
		times[i] = bds
		return nil
	})
	if err != nil {
		return kb, err
	}
	for m, mode := range modes {
		ratios := make([]float64, len(names))
		for i := range names {
			ratios[i] = times[0][i].Seconds / times[m+1][i].Seconds
		}
		kb.Series = append(kb.Series, struct {
			Label  string
			Ratios []float64
		}{Label: "Clang " + mode.String(), Ratios: ratios})
	}
	return kb, nil
}

// bestSGCandidates and bestSGPolicy are the Section 3.3 search space
// for the SG2042's best configuration: "for the SG2042 it was
// demonstrated in Section 3.2 that for some benchmark classes 32
// threads provided better performance compared to 64 threads".
// BestSGThreads and XCompare's multithreaded baseline share them, so
// the per-kernel and batched paths cannot diverge.
var bestSGCandidates = []int{32, 64}

const bestSGPolicy = placement.CyclicNUMA

// BestSGThreads reports the most performant SG2042 thread count for a
// kernel at a precision under NUMA-cyclic placement (the Section 3.3
// setup; see bestSGCandidates).
func (st *Study) BestSGThreads(spec kernels.Spec, p prec.Precision) (int, placement.Policy, float64, error) {
	best := -1.0
	bestT := bestSGCandidates[len(bestSGCandidates)-1]
	for _, threads := range bestSGCandidates {
		b, err := st.Model.KernelTime(spec, sgConfig(threads, bestSGPolicy, p))
		if err != nil {
			return 0, 0, 0, err
		}
		if best < 0 || b.Seconds < best {
			best = b.Seconds
			bestT = threads
		}
	}
	return bestT, bestSGPolicy, best, nil
}

// XCompare reproduces Figures 4-7: x86 CPUs against the SG2042 baseline.
// multithreaded=false gives the single-core comparison (Figures 4 and
// 5); true runs every x86 CPU over all its physical cores and the
// SG2042 at its best per-kernel configuration (Figures 6 and 7).
func (st *Study) XCompare(p prec.Precision, multithreaded bool) (Figure, error) {
	num := map[prec.Precision]map[bool]string{
		prec.F64: {false: "4", true: "6"},
		prec.F32: {false: "5", true: "7"},
	}
	kind := "single core"
	if multithreaded {
		kind = "multithreaded"
	}
	fig := Figure{
		Title: fmt.Sprintf("Figure %s: %v %s comparison against x86, baselined on the SG2042",
			num[p][multithreaded], p, kind),
		Baseline: "SG2042",
	}

	// SG2042 baseline measurements.
	var base []Measurement
	if !multithreaded {
		b, err := st.RunSuite(sgConfig(1, placement.Block, p))
		if err != nil {
			return Figure{}, err
		}
		base = b
	} else {
		// Best thread count/placement per kernel, as Section 3.3 does —
		// evaluated as one batched suite pass per candidate thread
		// count (shared with BestSGThreads via bestSGCandidates)
		// instead of one-shot model calls per kernel.
		specs := suite.All()
		times := make([][]perfmodel.Breakdown, len(bestSGCandidates))
		err := par.ForEach(len(bestSGCandidates), st.Workers, func(i int) error {
			bds, err := st.Model.SuiteTimes(specs, sgConfig(bestSGCandidates[i], bestSGPolicy, p))
			if err != nil {
				return err
			}
			times[i] = bds
			return nil
		})
		if err != nil {
			return Figure{}, err
		}
		base = make([]Measurement, len(specs))
		for i := range specs {
			secs := times[0][i].Seconds
			for _, bds := range times[1:] {
				if bds[i].Seconds < secs {
					secs = bds[i].Seconds
				}
			}
			base[i] = Measurement{Kernel: specs[i].Name, Class: specs[i].Class, Seconds: secs}
		}
	}

	x86 := machine.X86()
	series := make([]Series, len(x86))
	err := par.ForEach(len(x86), st.Workers, func(i int) error {
		m := x86[i]
		threads := 1
		if multithreaded {
			threads = m.Cores // "on all the x86 systems this was found to
			// be the same as the number of physical cores"
		}
		test, err := st.RunSuite(mustMachineCfg(m, threads, p))
		if err != nil {
			return err
		}
		ratios, err := Ratios(base, test)
		if err != nil {
			return err
		}
		series[i] = Series{Label: m.Label, ByClass: ClassSummaries(ratios)}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig.Series = series
	return fig, nil
}

// Table4Row is one row of the x86 summary table.
type Table4Row struct {
	CPU    string
	Part   string
	Clock  string
	Cores  int
	Vector string
}

// Table4 reproduces the x86 CPU summary table.
func Table4() []Table4Row {
	rows := []Table4Row{
		{"AMD Rome", "EPYC 7742", "2.25GHz", 64, "AVX2"},
		{"Intel Broadwell", "Xeon E5-2695", "2.1GHz", 18, "AVX2"},
		{"Intel Icelake", "Xeon 6330", "2.0GHz", 28, "AVX512"},
		{"Intel Sandybridge", "Xeon E5-2609", "2.40GHz", 4, "AVX"},
	}
	return rows
}
