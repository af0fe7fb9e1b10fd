package repro

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/report"
)

// Experiment names accepted by RunExperiment, in the paper's order.
var ExperimentNames = []string{
	"figure1", "table1", "table2", "table3",
	"figure2", "figure3", "table4",
	"figure4", "figure5", "figure6", "figure7",
}

// ExperimentInfo describes one of the paper's experiments for discovery
// surfaces (the -list flag, the HTTP list endpoint, godoc).
type ExperimentInfo struct {
	// Name is the identifier RunExperiment and the HTTP API accept.
	Name string `json:"name"`
	// Title is the rendered output's heading ("Figure 1: ...").
	Title string `json:"title"`
	// Desc says what the experiment reproduces from the paper.
	Desc string `json:"desc"`
	// CSV reports whether the experiment has a CSV form; Table 4 is the
	// one that renders as text even when CSV is requested.
	CSV bool `json:"csv"`
}

// experimentInfos is keyed in the order of ExperimentNames.
var experimentInfos = []ExperimentInfo{
	{"figure1", "Figure 1: single core comparison baselined against VisionFive V2 FP64",
		"single-core RISC-V comparison vs VisionFive V2 FP64", true},
	{"table1", "Table 1: speed up and parallel efficiency, block allocation",
		"SG2042 thread scaling under block placement", true},
	{"table2", "Table 2: speed up and parallel efficiency, cyclic allocation",
		"SG2042 thread scaling under cyclic-NUMA placement", true},
	{"table3", "Table 3: speed up and parallel efficiency, cluster-aware cyclic allocation",
		"SG2042 thread scaling under cluster-aware cyclic placement", true},
	{"figure2", "Figure 2: maximum single core speedup per class when enabling vectorisation on the C920",
		"C920 vectorisation speedup, vector vs scalar builds", true},
	{"figure3", "Figure 3: Clang VLA and VLS vs GCC, Polybench kernels, FP32, single core",
		"Clang VLA/VLS vs XuanTie GCC on the Polybench kernels", true},
	{"table4", "Table 4: Summary of x86 CPUs used to compare against the SG2042",
		"x86 comparator summary", false},
	{"figure4", "Figure 4: FP64 single core comparison against x86, baselined on the SG2042",
		"single-core x86 vs SG2042, FP64", true},
	{"figure5", "Figure 5: FP32 single core comparison against x86, baselined on the SG2042",
		"single-core x86 vs SG2042, FP32", true},
	{"figure6", "Figure 6: FP64 multithreaded comparison against x86, baselined on the SG2042",
		"multithreaded x86 vs SG2042, FP64", true},
	{"figure7", "Figure 7: FP32 multithreaded comparison against x86, baselined on the SG2042",
		"multithreaded x86 vs SG2042, FP32", true},
}

// Experiments returns metadata for every experiment, in the paper's
// order (the same order as ExperimentNames).
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, len(experimentInfos))
	copy(out, experimentInfos)
	return out
}

// ExperimentByName returns the metadata of one experiment ("all" is not
// an experiment; it is a batch of all of them).
func ExperimentByName(name string) (ExperimentInfo, bool) {
	name = canonExperiment(name)
	for _, info := range experimentInfos {
		if info.Name == name {
			return info, true
		}
	}
	return ExperimentInfo{}, false
}

// Options configures RunExperiments and NewEngine.
type Options struct {
	// Parallel is the global concurrency bound for the engine: when a
	// batch fans out, the experiment-level pool and the per-experiment
	// configuration fan-out together never exceed it. 0 picks
	// GOMAXPROCS; 1 runs everything serially on the calling goroutine.
	// Output is identical for every setting.
	Parallel int
	// CSV renders each experiment's CSV form instead of text (Table 4
	// has no CSV form and always renders as text).
	CSV bool
}

func (o Options) workers() int {
	if o.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// Engine is a long-lived experiment service: one memoized Study shared
// across requests, safe for concurrent use from many goroutines. The
// first request for a configuration evaluates it; every later
// experiment that needs the same configuration — in the same request or
// a concurrent one — is served from the cache, bit-identical.
type Engine struct {
	st   *Study
	opts Options
}

// NewEngine returns an Engine with the paper's study defaults.
func NewEngine(opts Options) *Engine {
	st := NewStudy()
	st.Workers = opts.workers()
	return &Engine{st: st, opts: opts}
}

// Run regenerates one experiment by name; "all" runs every experiment
// concatenated in the paper's order.
func (e *Engine) Run(name string) (string, error) {
	return e.RunFormat(name, e.opts.CSV)
}

// RunFormat is Run with an explicit output form, overriding the
// engine's Options.CSV for this request. A server negotiating the
// format per request uses it to keep one engine — and therefore one
// suite cache — across text and CSV clients.
func (e *Engine) RunFormat(name string, csv bool) (string, error) {
	name = canonExperiment(name)
	if name == "all" {
		return e.RunManyFormat(ExperimentNames, csv)
	}
	return renderExperiment(e.st, name, csv)
}

// RunMany regenerates the named experiments ("all" expands in place)
// over a bounded worker pool with first-error cancellation, and
// concatenates the outputs in the order the names were given — output
// ordering never depends on scheduling. Each experiment is followed by
// a blank separator line.
func (e *Engine) RunMany(names []string) (string, error) {
	return e.RunManyFormat(names, e.opts.CSV)
}

// RunManyFormat is RunMany with an explicit output form.
func (e *Engine) RunManyFormat(names []string, csv bool) (string, error) {
	return runMany(e.st, expandExperiments(names), csv, e.opts.workers())
}

// RunEach regenerates each named experiment ("all" expands in place)
// over the same bounded pool RunMany uses, but returns the outputs
// individually, aligned with the expanded name order. Batch endpoints
// use it to fan a request out while keeping per-experiment results
// addressable. The returned names are the canonicalized, expanded
// inputs.
func (e *Engine) RunEach(names []string, csv bool) (expanded []string, outs []string, err error) {
	expanded = expandExperiments(names)
	outs, err = renderEach(e.st, expanded, csv, e.opts.workers())
	return expanded, outs, err
}

// CacheStats reports the engine's memoized suite lookups (hits served
// from the cache, misses evaluated).
func (e *Engine) CacheStats() (hits, misses uint64) { return e.st.CacheStats() }

// RunExperiment regenerates one of the paper's tables or figures and
// returns it rendered as text. Accepted names are listed in
// ExperimentNames; "all" concatenates every experiment. Evaluation is
// serial; use RunExperiments for the concurrent engine.
func RunExperiment(name string) (string, error) {
	st := NewStudy()
	return runExperimentWith(st, canonExperiment(name))
}

// RunExperiments regenerates the named experiments ("all" expands to
// every one) on a bounded worker pool shared with a memoized study, and
// returns their outputs concatenated in the order given. The result is
// byte-identical to running the same names serially.
func RunExperiments(names []string, opts Options) (string, error) {
	return NewEngine(opts).RunMany(names)
}

// RunExperimentCSV is RunExperiment with CSV output (Table 4 has no CSV
// form and renders as text); "all" concatenates every experiment's CSV.
func RunExperimentCSV(name string) (string, error) {
	st := NewStudy()
	name = canonExperiment(name)
	if name == "all" {
		return runMany(st, ExperimentNames, true, st.Workers)
	}
	return renderExperiment(st, name, true)
}

func canonExperiment(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// expandExperiments canonicalizes names and expands "all" in place.
func expandExperiments(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		n = canonExperiment(n)
		if n == "all" {
			out = append(out, ExperimentNames...)
			continue
		}
		out = append(out, n)
	}
	return out
}

// fanOut evaluates each named experiment through do against one shared
// study over a bounded pool; outs[i] keeps the caller's ordering stable
// regardless of completion order. workers is a global bound: it is
// split between the experiment-level pool and the per-experiment
// fan-out (outer * inner <= workers), so -parallel 8 never runs 8x8
// goroutines. Text, CSV and binary renderings all fan out through it.
func fanOut[T any](st *Study, names []string, workers int, do func(*Study, string) (T, error)) ([]T, error) {
	outer := max(min(workers, len(names)), 1)
	view := st.WithWorkers(max(workers/outer, 1))
	outs := make([]T, len(names))
	err := par.ForEach(len(names), outer, func(i int) error {
		out, err := do(view, names[i])
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// renderEach is fanOut over renderExperiment in one output form.
func renderEach(st *Study, names []string, csv bool, workers int) ([]string, error) {
	return fanOut(st, names, workers, func(view *Study, name string) (string, error) {
		return renderExperiment(view, name, csv)
	})
}

// runMany is renderEach concatenated: each experiment followed by a blank
// separator line, in the order the names were given.
func runMany(st *Study, names []string, csv bool, workers int) (string, error) {
	outs, err := renderEach(st, names, csv, workers)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, out := range outs {
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}

func runExperimentWith(st *Study, name string) (string, error) {
	if name == "all" {
		return runMany(st, ExperimentNames, false, st.Workers)
	}
	return renderExperiment(st, name, false)
}

// renderExperiment evaluates one experiment against st and renders it
// as text or CSV — the single switch both RunExperiment flavours and
// the engine share.
func renderExperiment(st *Study, name string, csv bool) (string, error) {
	switch name {
	case "figure1":
		fig, err := st.Figure1()
		if err != nil {
			return "", err
		}
		return figureOut(fig, csv), nil
	case "table1", "table2", "table3":
		tab, err := st.ScalingTable(tablePolicy(name))
		if err != nil {
			return "", err
		}
		if csv {
			return report.ScalingTableCSV(tab), nil
		}
		return report.ScalingTableText(tab), nil
	case "figure2":
		fig, err := st.Figure2()
		if err != nil {
			return "", err
		}
		return figureOut(fig, csv), nil
	case "figure3":
		kb, err := st.Figure3()
		if err != nil {
			return "", err
		}
		if csv {
			return report.KernelBarsCSV(kb), nil
		}
		return report.KernelBarsText(kb), nil
	case "table4":
		return report.Table4Text(core.Table4()), nil
	case "figure4", "figure5", "figure6", "figure7":
		fig, err := xFigure(st, name)
		if err != nil {
			return "", err
		}
		return figureOut(fig, csv), nil
	}
	return "", fmt.Errorf("repro: unknown experiment %q (want one of %s, or all)",
		name, strings.Join(ExperimentNames, ", "))
}

func figureOut(fig Figure, csv bool) string {
	if csv {
		return report.FigureCSV(fig)
	}
	return report.FigureText(fig)
}

func tablePolicy(name string) placement.Policy {
	switch name {
	case "table1":
		return placement.Block
	case "table2":
		return placement.CyclicNUMA
	default:
		return placement.ClusterCyclic
	}
}

func xFigure(st *Study, name string) (Figure, error) {
	switch name {
	case "figure4":
		return st.XCompare(prec.F64, false)
	case "figure5":
		return st.XCompare(prec.F32, false)
	case "figure6":
		return st.XCompare(prec.F64, true)
	default:
		return st.XCompare(prec.F32, true)
	}
}

// HeadlineSummary computes the headline comparisons from the paper's
// conclusions section as a compact text block: C920-vs-U74 factors and
// x86-vs-SG2042 factors at both precisions, single and multi-core.
func HeadlineSummary() (string, error) {
	st := NewStudy()
	st.Noise = 0
	st.Runs = 1
	var b strings.Builder

	fig1, err := st.Figure1()
	if err != nil {
		return "", err
	}
	b.WriteString("C920 vs U74 (VisionFive V2 FP64 baseline), class-average range:\n")
	for _, s := range fig1.Series {
		if !strings.HasPrefix(s.Label, "SG2042") {
			continue
		}
		var means []float64
		for _, sum := range s.ByClass {
			means = append(means, sum.Mean)
		}
		sort.Float64s(means)
		fmt.Fprintf(&b, "  %-12s %.1fx to %.1fx\n", s.Label, means[0], means[len(means)-1])
	}

	for _, mt := range []bool{false, true} {
		kind := "single-core"
		if mt {
			kind = "multithreaded"
		}
		for _, p := range []Precision{F64, F32} {
			fig, err := st.XCompare(p, mt)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "x86 vs SG2042, %s %v (grand mean across classes):\n", kind, p)
			for _, s := range fig.Series {
				sum, n := 0.0, 0
				for _, cs := range s.ByClass {
					sum += cs.Mean
					n++
				}
				fmt.Fprintf(&b, "  %-12s %.1fx\n", s.Label, sum/float64(n))
			}
		}
	}
	return b.String(), nil
}
