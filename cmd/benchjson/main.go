// Command benchjson runs the study engine's benchmarks and writes a
// machine-readable summary — ns/op, B/op, allocs/op and any custom
// metrics, per benchmark — so CI can record the serving-path perf
// trajectory instead of letting it evaporate in build logs.
//
//	go run ./cmd/benchjson -o BENCH_engine.json
//
// The default selection covers the four layers of the request→result
// pipeline: whole-experiment evaluation and campaigns (repro), suite
// evaluation and the memoized hit path (internal/core), the batched
// model API (internal/perfmodel) and the HTTP hot path
// (internal/serve), plus the campaign fabric's point codec
// (internal/fabric). See docs/PERFORMANCE.md for how to read the
// numbers.
//
// With -compare, benchjson is CI's regression gate instead: it reads
// two reports and fails when the new one regresses allocs/op or B/op
// beyond the tolerance — those are (near-)deterministic properties of
// the code, so a jump is a real change, not runner noise. ns/op is
// warn-only, because CI runner timing is noise.
//
//	go run ./cmd/benchjson -compare BENCH_engine.json BENCH_new.json
//	go run ./cmd/benchjson -compare -tolerance 0.25 old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Package    string `json:"package"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps a unit to its value: "ns/op", "B/op", "allocs/op",
	// plus any b.ReportMetric units (e.g. "cache_hit_rate").
	Metrics map[string]float64 `json:"metrics"`
}

type benchReport struct {
	Bench      string        `json:"bench"`
	Benchtime  string        `json:"benchtime"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output file")
	bench := flag.String("bench", "AllExperiments|RunSuite|SuiteTimes|HTTPGet|Campaign|Encode",
		"benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "10x", "go test -benchtime value")
	compare := flag.Bool("compare", false,
		"compare two reports (old.json new.json) instead of running: exit 1 on allocs/op, B/op or errors/op regressions beyond -tolerance; ns/op warns only")
	tolerance := flag.Float64("tolerance", 0.10,
		"relative regression tolerance for -compare (0.10 = 10%)")
	failMissing := flag.Bool("fail-missing", false,
		"with -compare, fail when a baseline benchmark is missing from the new report (an endpoint the load run never exercised)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two reports: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *tolerance, *failMissing, os.Stdout))
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{".", "./internal/core", "./internal/perfmodel", "./internal/serve", "./internal/fabric"}
	}

	args := append([]string{"test", "-run", "^$", "-bench", *bench,
		"-benchmem", "-benchtime", *benchtime}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(raw)
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	report := benchReport{Bench: *bench, Benchtime: *benchtime}
	report.Benchmarks, err = parseBenchOutput(string(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched %q\n", *bench)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// benchDelta is one metric's old-vs-new movement.
type benchDelta struct {
	Bench  string // "package/Name"
	Metric string
	Old    float64
	New    float64
}

func (d benchDelta) String() string {
	pct := 0.0
	if d.Old != 0 {
		pct = (d.New - d.Old) / d.Old * 100
	}
	return fmt.Sprintf("%s %s %g -> %g (%+.1f%%)", d.Bench, d.Metric, d.Old, d.New, pct)
}

// gateMetrics are the metrics the compare gate fails on, in output
// order, with the absolute slack added on top of the relative
// tolerance: allocs/op and B/op are (near-)deterministic, but tiny
// counts flap by a couple of allocations (sync.Pool hits, map growth
// timing), so a regression must clear both the relative and the
// absolute bar.
var gateMetrics = []struct {
	name  string
	slack float64
}{
	{"allocs/op", 2},
	{"B/op", 512},
	// errors/op gates the HTTP load reports (cmd/sg2042load): the
	// baseline is zero and zero slack means any error at all — a 5xx, a
	// short body, a broken binary frame — fails the gate outright.
	{"errors/op", 0},
}

// compareReports diffs new against old: regressions are gate-metric
// increases beyond tolerance, warnings are ns/op increases beyond
// tolerance (CI timing is noise, so they never fail), notes record
// benchmarks present on only one side (with failMissing, a baseline
// benchmark absent from the new report is a regression instead — CI
// uses it so a load run that silently skipped an endpoint cannot
// pass), and improvements record gate-metric drops beyond tolerance.
func compareReports(old, cur benchReport, tol float64, failMissing bool) (regressions, warnings, improvements, notes []string) {
	oldBy := make(map[string]benchResult, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Package+"/"+r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		key := r.Package + "/" + r.Name
		seen[key] = true
		prev, ok := oldBy[key]
		if !ok {
			notes = append(notes, fmt.Sprintf("new benchmark %s (no baseline)", key))
			continue
		}
		for _, gate := range gateMetrics {
			ov, newer := prev.Metrics[gate.name], r.Metrics[gate.name]
			d := benchDelta{Bench: key, Metric: gate.name, Old: ov, New: newer}
			switch {
			case newer > ov*(1+tol) && newer-ov > gate.slack:
				regressions = append(regressions, d.String())
			case newer < ov*(1-tol) && ov-newer > gate.slack:
				improvements = append(improvements, d.String())
			}
		}
		if ov, newer := prev.Metrics["ns/op"], r.Metrics["ns/op"]; newer > ov*(1+tol) {
			warnings = append(warnings, benchDelta{Bench: key, Metric: "ns/op", Old: ov, New: newer}.String())
		}
	}
	for _, r := range old.Benchmarks {
		if key := r.Package + "/" + r.Name; !seen[key] {
			msg := fmt.Sprintf("benchmark %s removed (was in baseline)", key)
			if failMissing {
				regressions = append(regressions, msg)
			} else {
				notes = append(notes, msg)
			}
		}
	}
	return regressions, warnings, improvements, notes
}

// runCompare loads both reports, prints the diff, and returns the
// process exit code: 1 when any gate metric regressed, 0 otherwise.
func runCompare(oldPath, newPath string, tol float64, failMissing bool, w io.Writer) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	newer, err := readReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	regressions, warnings, improvements, notes := compareReports(old, newer, tol, failMissing)
	for _, s := range notes {
		fmt.Fprintln(w, "note:", s)
	}
	for _, s := range improvements {
		fmt.Fprintln(w, "improvement:", s)
	}
	for _, s := range warnings {
		fmt.Fprintln(w, "warn (ns/op, not gating):", s)
	}
	for _, s := range regressions {
		fmt.Fprintln(w, "REGRESSION:", s)
	}
	fmt.Fprintf(w, "benchjson: compared %d benchmarks against %s: %d regressions, %d warnings (tolerance %.0f%%)\n",
		len(newer.Benchmarks), oldPath, len(regressions), len(warnings), tol*100)
	if len(regressions) > 0 {
		return 1
	}
	return 0
}

func readReport(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// parseBenchOutput extracts benchmark lines from go test output. The
// package each benchmark belongs to is taken from the preceding "pkg:"
// header go test prints per package.
func parseBenchOutput(out string) ([]benchResult, error) {
	var results []benchResult
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		r, err := parseBenchLine(pkg, line)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8  10  123456 ns/op  789 B/op  12 allocs/op  0.85 rate
//
// into a benchResult. The -GOMAXPROCS suffix is stripped from the name;
// everything after the iteration count is (value, unit) pairs.
func parseBenchLine(pkg, line string) (benchResult, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchResult{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	r := benchResult{Package: pkg, Name: name, Iterations: iters,
		Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, fmt.Errorf("bad metric value in %q: %v", line, err)
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, nil
}
