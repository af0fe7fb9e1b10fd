// Command perfbench is the repository's benchmark: fixed, seeded
// operation sequences driven against real sg2042d processes over one
// keep-alive connection (a closed loop with one client), with every
// response byte-compared against an in-process rendering, exact counter
// deltas checked across rounds, and a separate in-process traced replay
// for per-layer attribution. METRICS.md defines every metric and says
// why each workload exists.
//
// Run it through run.sh from the repository root, which builds this
// command and cmd/sg2042d from the checkout first:
//
//	bash perfbench/run.sh --workload artefact-read --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Earlier lines and
// .bench_build/results/ hold the run context and every round's figures.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"first_point_p50_ms", "ms"},
	{"points_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 run reports.
var perLayer = []metricDef{
	{"transport.livez_rtt_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.outside_handler_us", "us"},
	{"serve.inproc_us", "us"},
	{"serve.render_cache.hit_ratio", "ratio"},
	{"serve.render_cache.hits_per_op", "count"},
	{"serve.render_cache.misses_per_op", "count"},
	{"serve.campaign_points_per_op", "count"},
	{"daemon.cpu_ms_per_op", "ms"},
	{"repro.spec_parse_us", "us"},
	{"core.campaign_us", "us"},
	{"core.first_emit_us", "us"},
	{"core.suite_evals_per_op", "count"},
	{"core.suite_cache.hit_ratio", "ratio"},
	{"core.points_per_suite_eval", "ratio"},
	{"perfmodel.suite_eval_us", "us"},
	{"machine.derive_us", "us"},
	{"report.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"fabric.run_us", "us"},
	{"fabric.worker_busy_us_per_point", "us"},
	{"fabric.coordinator_self_us_per_point", "us"},
	{"fabric.worker_skew", "ratio"},
	{"fabric.worker_requests_per_op", "count"},
	{"loadgen.validate_us", "us"},
	{"loadgen.cpu_ms_per_op", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	wname := fset.String("workload", "", "workload: artefact-read, campaign-cold, campaign-overlap or fabric-cold")
	seed := fset.Int64("seed", 1, "seed of the generated operation sequence")
	seconds := fset.Int("seconds", 16, "run length; fixes the number of rounds (never a timer)")
	trace := fset.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	daemonBin := fset.String("daemon", "", "path of a built cmd/sg2042d")
	outDir := fset.String("out", ".bench_build", "directory for spans and result files")
	child := fset.String("child", "", "run an in-process replay (ref, trace or notrace) and print it as JSON")
	inPath := fset.String("inputs", "", "with -child: the generated inputs file to replay")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*wname)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wname)
		return 2
	}
	if *child != "" {
		return runChild(*child, w, *seed, *inPath, *outDir, stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *daemonBin == "" {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1 and -daemon")
		return 2
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, *daemonBin, *outDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// inputs are a run's generated operations, written once by the parent
// and read by every in-process replay, whose package-level caches must
// start as empty as a fresh daemon's (generating derives machines).
type inputs struct {
	Seq sequence `json:"seq"`
	// Probe holds the campaign-cold ops artefact-read's traced replay
	// measures the campaign layers on; artefact-read issues no campaigns.
	Probe []op `json:"probe,omitempty"`
}

// probeOps is how many campaign-cold ops artefact-read's probe replays.
const probeOps = 4

// writeInputs generates w's inputs for seed and writes them under outDir.
func writeInputs(w workload, seed int64, outDir string) (string, sequence, error) {
	in := inputs{Seq: w.gen(seed)}
	if !w.campaign {
		in.Probe = genCampaignCold(seed).Timed[:probeOps]
	}
	path := filepath.Join(outDir, "inputs", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	data, err := json.Marshal(in)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	return path, in.Seq, err
}

// runChild is the child-process side of the in-process replays.
func runChild(mode string, w workload, seed int64, inPath, outDir string, stdout, stderr io.Writer) int {
	var out childOut
	var in inputs
	data, err := os.ReadFile(inPath)
	if err == nil {
		err = json.Unmarshal(data, &in)
	}
	if err == nil {
		switch mode {
		case "ref":
			out.Expect, err = reference(w, in.Seq)
		case "trace", "notrace":
			spans := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
			if err = os.MkdirAll(filepath.Dir(spans), 0o755); err == nil {
				out, err = replay(w, in, seed, mode == "trace", spans)
			}
		default:
			err = fmt.Errorf("unknown child mode %q", mode)
		}
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", mode, err)
		return 1
	}
	return 0
}

// childRun runs an in-process replay in a fresh child process.
func childRun(mode string, w workload, seed int64, inPath, outDir string) (childOut, error) {
	var out childOut
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-inputs", inPath, "-out", outDir)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("%s replay: %v: %s", mode, err, strings.TrimSpace(se.String()))
	}
	return out, json.Unmarshal(so.Bytes(), &out)
}

// runContext records where and on what a run happened.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
	Rounds     int     `json:"rounds"`
	Flagged    int     `json:"flagged_rounds"`
	WallS      float64 `json:"wall_s"`
}

// nRounds fixes the number of rounds from --seconds alone.
func nRounds(w workload, seconds int) int {
	return max(3, int(math.Round(float64(seconds)/w.roundSeconds)))
}

func bench(w workload, seed int64, seconds int, trace bool, bin, outDir string, stdout io.Writer) (summary, error) {
	start := time.Now()
	ctx := runContext{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Load1Start: load1(), Rounds: nRounds(w, seconds)}
	inPath, seq, err := writeInputs(w, seed, outDir)
	if err != nil {
		return summary{}, err
	}
	ref, err := childRun("ref", w, seed, inPath, outDir)
	if err != nil {
		return summary{}, err
	}
	p, err := prepare(seq, ref.Expect)
	if err != nil {
		return summary{}, err
	}
	rounds := make([]round, 0, ctx.Rounds)
	for i := 0; i < ctx.Rounds; i++ {
		r, err := runRound(bin, w, p)
		if err != nil {
			return summary{}, fmt.Errorf("round %d: %w", i+1, err)
		}
		rounds = append(rounds, r)
	}
	ctx.Flagged = flagOutliers(rounds)
	var valid []round
	res := summary{Metrics: map[string]metricValue{}}
	for _, r := range rounds {
		res.Attempted += len(p.warm) + len(p.timed)
		res.Failed += r.Failed
		if !r.Flagged {
			valid = append(valid, r)
		}
	}
	res.Correct = res.Failed == 0
	figures := endToEndFigures(valid)
	defs := endToEnd
	if trace {
		tr, err := childRun("trace", w, seed, inPath, outDir)
		if err != nil {
			return summary{}, err
		}
		nt, err := childRun("notrace", w, seed, inPath, outDir)
		if err != nil {
			return summary{}, err
		}
		figures = roundLayerFigures(valid)
		for k, v := range tr.Layers {
			figures[k] = v
		}
		figures["trace.overhead_ratio"] = median(tr.OpUS) / median(nt.OpUS)
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: figures[d.name], Unit: d.unit}
	}
	ctx.Load1End = load1()
	ctx.WallS = time.Since(start).Seconds()
	report(stdout, ctx, rounds, defs, res)
	return res, saveResult(outDir, ctx, rounds, res)
}

// perRound is the median over rounds of f.
func perRound(rs []round, f func(round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// pooled concatenates one per-op series over rounds.
func pooled(rs []round, f func(round) []float64) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r)...)
	}
	return xs
}

// endToEndFigures pools the per-op samples of every round before taking
// quantiles: a campaign's first point waits on the Go scheduler (the
// emitting goroutine is readied while both Ps run evaluation workers), so
// single-op times spread almost uniformly over a 10 ms time slice, and
// only a large pooled sample pins their median.
func endToEndFigures(rs []round) map[string]float64 {
	lat := pooled(rs, func(r round) []float64 { return r.LatencyMS })
	points, busy := 0.0, 0.0
	for _, r := range rs {
		points += float64(r.Points)
		busy += r.BusyS
	}
	return map[string]float64{
		"latency_p50_ms":     quantile(lat, 0.5),
		"latency_p90_ms":     quantile(lat, 0.9),
		"first_point_p50_ms": median(pooled(rs, func(r round) []float64 { return r.FirstMS })),
		"points_per_s":       points / busy,
		"rss_peak_mb":        perRound(rs, func(r round) float64 { return r.RSSMB }),
		"setup_s":            perRound(rs, func(r round) float64 { return r.SetupS }),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func roundLayerFigures(rs []round) map[string]float64 {
	per := func(f func(r round) float64) float64 { return perRound(rs, f) }
	return map[string]float64{
		"transport.livez_rtt_us": per(func(r round) float64 { return r.LivezUS }),
		"serve.handler_us":       per(func(r round) float64 { return 1e6 * ratio(r.HandlerS, float64(r.Counts.Requests)) }),
		"serve.outside_handler_us": per(func(r round) float64 {
			return 1e3*mean(r.LatencyMS) - 1e6*ratio(r.HandlerS, float64(r.Counts.Requests))
		}),
		"serve.render_cache.hit_ratio": per(func(r round) float64 {
			return ratio(float64(r.Counts.RenderHits), float64(r.Counts.RenderHits+r.Counts.RenderMisses))
		}),
		"serve.render_cache.hits_per_op":   per(func(r round) float64 { return float64(r.Counts.RenderHits) / float64(r.Ops) }),
		"serve.render_cache.misses_per_op": per(func(r round) float64 { return float64(r.Counts.RenderMisses) / float64(r.Ops) }),
		"serve.campaign_points_per_op":     per(func(r round) float64 { return float64(r.Counts.CampaignPoints) / float64(r.Ops) }),
		"daemon.cpu_ms_per_op":             per(func(r round) float64 { return 1e3 * r.DaemonCPU / float64(r.Ops) }),
		"core.suite_evals_per_op":          per(func(r round) float64 { return float64(r.Counts.SuiteMisses) / float64(r.Ops) }),
		"core.suite_cache.hit_ratio": per(func(r round) float64 {
			return ratio(float64(r.Counts.SuiteHits), float64(r.Counts.SuiteHits+r.Counts.SuiteMisses))
		}),
		"core.points_per_suite_eval": per(func(r round) float64 {
			return ratio(float64(r.Counts.CampaignPoints), float64(r.Counts.SuiteMisses))
		}),
		"fabric.worker_requests_per_op": per(func(r round) float64 { return float64(r.Counts.FabricRequests) / float64(r.Ops) }),
		"loadgen.validate_us":           per(func(r round) float64 { return 1e6 * r.ValidateS / float64(r.Ops) }),
		"loadgen.cpu_ms_per_op":         per(func(r round) float64 { return 1e3 * r.LoadgenCPU / float64(r.Ops) }),
	}
}

// report prints the run context, every round and every metric.
func report(w io.Writer, ctx runContext, rounds []round, defs []metricDef, res summary) {
	c, _ := json.Marshal(ctx)
	fmt.Fprintf(w, "context %s\n", c)
	for i, r := range rounds {
		flag := ""
		if r.Flagged {
			flag = " FLAGGED: counts differ from the other rounds"
		}
		cnt, _ := json.Marshal(r.Counts)
		fmt.Fprintf(w, "round %d: setup %.4fs p50 %.4fms p90 %.4fms first %.4fms failed %d counts %s%s\n",
			i+1, r.SetupS, quantile(r.LatencyMS, 0.5), quantile(r.LatencyMS, 0.9), quantile(r.FirstMS, 0.5), r.Failed, cnt, flag)
		if r.FirstError != "" {
			fmt.Fprintf(w, "round %d: first failure: %s\n", i+1, r.FirstError)
		}
	}
	fmt.Fprintf(w, "failed_ratio %.6f (%d of %d ops)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-38s %14.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// saveResult writes the full result (context, rounds, metrics) as JSON.
func saveResult(outDir string, ctx runContext, rounds []round, res summary) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Context runContext `json:"context"`
		Rounds  []round    `json:"rounds"`
		Result  summary    `json:"result"`
	}{ctx, rounds, res}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if ctx.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", ctx.Workload, ctx.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// load1 is the 1-minute load average.
func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built inside a git checkout, otherwise a digest of
// the checkout's Go sources (the benchmark usually runs in an exported
// tree with no .git).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
