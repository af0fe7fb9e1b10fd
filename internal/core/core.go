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
	"slices"
	"sort"

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
// are bit-identical whatever the Workers setting, cached or not.
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

// suiteSeconds returns cfg's per-kernel seconds in suite.All() order,
// memoized per canonicalized configuration unless the Study has no
// cache; noise is seeded from the configuration, so cached and freshly
// evaluated seconds are bit-identical. It is the experiments' read of
// the suite cache: with the cache on, the slice is the entry's own,
// the one campaigns read through runSuiteShared, and the caller must
// treat it as read-only.
func (st *Study) suiteSeconds(cfg perfmodel.Config) ([]float64, error) {
	if st.cache == nil {
		return st.runSuiteUncached(cfg, uncoreFingerprint(cfg.Machine), nil)
	}
	// The uncore fingerprint is hashed only on a miss.
	secs, _, err := st.cache.Get(st.suiteKeyFor(cfg), func() ([]float64, error) {
		return st.runSuiteUncached(cfg, uncoreFingerprint(cfg.Machine), nil)
	})
	return secs, err
}

// runSuiteShared returns cfg's per-kernel seconds in suite order. With
// the cache on, the slice is the cache entry's own and the caller must
// treat it as read-only; the campaign planner reads it positionally.
// key must be suiteKeyFP with the machine's fingerprint, and ufp the
// machine's uncore fingerprint.
func (st *Study) runSuiteShared(cfg perfmodel.Config, key suiteKey, ufp uint64) ([]float64, error) {
	if st.cache == nil {
		return st.runSuiteUncached(cfg, ufp, nil)
	}
	secs, _, err := st.cache.Get(key, func() ([]float64, error) {
		return st.runSuiteUncached(cfg, ufp, nil)
	})
	return secs, err
}

// runSuiteUncached evaluates cfg and returns each kernel's averaged
// seconds in suite.All() order, written into dst when it has the
// capacity (pass nil to allocate). ufp is cfg.Machine's uncore
// fingerprint.
func (st *Study) runSuiteUncached(cfg perfmodel.Config, ufp uint64, dst []float64) ([]float64, error) {
	specs := suite.All()
	// Compiled evaluation: one plan per configuration, so the
	// placement analysis and the memory-system half of every kernel
	// come from the model's uncore memo and only the clock-dependent
	// terms are evaluated here. The planned path is bit-identical to
	// per-kernel KernelTime.
	plan, err := st.Model.SuitePlanFP(specs, cfg, ufp)
	if err != nil {
		label := "<nil machine>"
		if cfg.Machine != nil {
			label = cfg.Machine.Label
		}
		return nil, fmt.Errorf("core: suite on %s: %w", label, err)
	}
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
		secs := plan.Seconds(i)
		sum := 0.0
		for r := 0; r < runs; r++ {
			sum += float64(secs * (1 + float64(st.Noise*noise.rng.NormFloat64())))
		}
		dst[i] = sum / float64(runs)
	}
	noisePool.Put(noise)
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

// classPos maps each class, by its index in kernels.Classes, to the
// suite.All() positions of its kernels, in suite order.
var classPos = func() [][]int {
	pos := make([][]int, len(kernels.Classes))
	for k, spec := range suite.All() {
		ci := slices.Index(kernels.Classes, spec.Class)
		pos[ci] = append(pos[ci], k)
	}
	return pos
}()

// classSummaries is the study's one aggregation, the form in which the
// paper reports every figure, table and campaign point. base and test
// are per-kernel seconds in suite.All() order; for each class with
// kernels, in kernels.Classes order, yield gets the class's mean test
// seconds and the summary of its per-kernel ratios base/test (> 1 means
// the test configuration is faster). A non-positive test time is an
// error, returned before any yield. The scratch is two stack arrays, so
// the aggregation allocates nothing.
func classSummaries(base, test []float64, yield func(c kernels.Class, secs float64, ratio stats.Summary)) error {
	for k, s := range test {
		if s <= 0 {
			return fmt.Errorf("core: kernel %s has non-positive time", suite.All()[k].Name)
		}
	}
	var secsArr, ratsArr [64]float64
	for ci, idxs := range classPos {
		if len(idxs) == 0 {
			continue
		}
		secs, rats := secsArr[:0], ratsArr[:0]
		for _, k := range idxs {
			secs = append(secs, test[k])
			rats = append(rats, base[k]/test[k])
		}
		yield(kernels.Classes[ci], stats.Mean(secs), stats.Summarize(rats))
	}
	return nil
}

// Series is one bar group of a class-level figure.
type Series struct {
	Label   string
	ByClass map[kernels.Class]stats.Summary
}

// figureSeries summarises test against base per class as one series.
func figureSeries(label string, base, test []float64) (Series, error) {
	byClass := make(map[kernels.Class]stats.Summary, len(kernels.Classes))
	if err := classSummaries(base, test, func(c kernels.Class, _ float64, r stats.Summary) {
		byClass[c] = r
	}); err != nil {
		return Series{}, err
	}
	return Series{Label: label, ByClass: byClass}, nil
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
	base, err := st.suiteSeconds(mustMachineCfg(machine.VisionFiveV2(), 1, prec.F64))
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
		test, err := st.suiteSeconds(cases[i].cfg)
		if err != nil {
			return err
		}
		series[i], err = figureSeries(cases[i].label, base, test)
		return err
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
	base, err := st.suiteSeconds(sgConfig(1, pol, prec.F32))
	if err != nil {
		return res, err
	}
	rows := make([]map[kernels.Class]ScalingCell, len(TableThreads))
	err = par.ForEach(len(TableThreads), st.Workers, func(i int) error {
		threads := TableThreads[i]
		test, err := st.suiteSeconds(sgConfig(threads, pol, prec.F32))
		if err != nil {
			return err
		}
		// A class's speed up is the mean of its kernels' t1/tn.
		row := make(map[kernels.Class]ScalingCell, len(kernels.Classes))
		rows[i] = row
		return classSummaries(base, test, func(c kernels.Class, _ float64, sp stats.Summary) {
			row[c] = ScalingCell{Speedup: sp.Mean, PE: stats.ParallelEfficiency(sp.Mean, threads)}
		})
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
		base, err := st.suiteSeconds(scalarCfg)
		if err != nil {
			return err
		}
		test, err := st.suiteSeconds(sgConfig(1, placement.Block, p))
		if err != nil {
			return err
		}
		series[i], err = figureSeries(fmt.Sprintf("RVV vs scalar, %v", p), base, test)
		return err
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
// XCompare's multithreaded baseline takes each kernel's fastest
// candidate.
var bestSGCandidates = []int{32, 64}

const bestSGPolicy = placement.CyclicNUMA

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

	// SG2042 baseline seconds, in suite order.
	var base []float64
	if !multithreaded {
		b, err := st.suiteSeconds(sgConfig(1, placement.Block, p))
		if err != nil {
			return Figure{}, err
		}
		base = b
	} else {
		// Best thread count/placement per kernel, as Section 3.3 does —
		// evaluated as one batched suite pass per candidate thread
		// count instead of one-shot model calls per kernel.
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
		base = make([]float64, len(specs))
		for i := range specs {
			base[i] = times[0][i].Seconds
			for _, bds := range times[1:] {
				if bds[i].Seconds < base[i] {
					base[i] = bds[i].Seconds
				}
			}
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
		test, err := st.suiteSeconds(mustMachineCfg(m, threads, p))
		if err != nil {
			return err
		}
		series[i], err = figureSeries(m.Label, base, test)
		return err
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
