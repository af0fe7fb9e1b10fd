// Command sg2042sim regenerates the paper's tables and figures from the
// performance model, and runs what-if hardware sweeps over it.
//
// Usage:
//
//	sg2042sim -exp table2            # one experiment as text
//	sg2042sim -exp figure3 -csv      # CSV output
//	sg2042sim -exp all               # every table and figure
//	sg2042sim -exp all -parallel 8   # ... on 8 workers (same bytes)
//	sg2042sim -headline              # the conclusions' headline factors
//	sg2042sim -list                  # list experiment names
//	sg2042sim -machines              # list the machine registry
//	sg2042sim -machine SG2042        # print a machine's JSON spec
//	sg2042sim -machine SG2042 -sweep vector=128,256,512 -threads 1
//	sg2042sim -sweep cores=8,16,32,64          # what-if sweeps (base
//	sg2042sim -sweep numa=1,2,4 -csv           # defaults to SG2042)
//	sg2042sim -sweep nodes=1,2,4               # scale past 64 cores
//	sg2042sim -cluster SG2042 -sockets 2       # MPI scaling, 2-socket nodes
//	sg2042sim -campaign spec.json              # multi-axis campaign
//	sg2042sim -campaign spec.json -csv -parallel 8
//
// A campaign spec file is the JSON form POST /v1/campaign accepts
// (schema in docs/EXPERIMENTS.md); examples/campaign/spec.json is a
// worked example.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, extracted from main so flag handling is
// testable without os.Exit: it parses args, writes to the given
// streams, and returns the process exit code (0 ok, 1 runtime error,
// 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sg2042sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to regenerate (figure1..figure7, table1..table4, all)")
	csv := fs.Bool("csv", false, "emit CSV instead of text")
	parallel := fs.Int("parallel", 0, "worker pool size for the study engine (0 = GOMAXPROCS, 1 = serial); output is identical for every setting")
	headline := fs.Bool("headline", false, "print the headline comparison factors")
	list := fs.Bool("list", false, "list available experiments")
	roofline := fs.String("roofline", "", "print the roofline of a registry machine (label, e.g. SG2042 or SG2044; see -machines)")
	clusterNode := fs.String("cluster", "", "model MPI scaling of a machine (label, e.g. SG2042) — the paper's further work")
	network := fs.String("net", "ib", "interconnect for -cluster: ib or eth")
	sockets := fs.Int("sockets", 0, "sockets per node for -cluster (0 = the preset's own topology)")
	machines := fs.Bool("machines", false, "list the machine registry (presets + SG2044)")
	machineLabel := fs.String("machine", "", "registry machine label: alone prints its JSON spec; with -sweep selects the sweep base (default SG2042)")
	sweep := fs.String("sweep", "", "what-if hardware sweep, axis=v1,v2,... with axis one of cores, clock (GHz), vector (bits), numa, sockets, nodes")
	threads := fs.Int("threads", 0, "thread count for -sweep (0 = full occupancy of each variant)")
	campaign := fs.String("campaign", "", "multi-axis campaign from a JSON spec file (the POST /v1/campaign form; see docs/EXPERIMENTS.md)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "sg2042sim:", err)
		return 1
	}

	switch {
	case *campaign != "":
		data, err := os.ReadFile(*campaign)
		if err != nil {
			return fail(err)
		}
		spec, err := repro.CampaignSpecFromJSON(data, repro.DefaultMachineRegistry())
		if err != nil {
			return fail(err)
		}
		eng := repro.NewEngine(repro.Options{Parallel: *parallel})
		out, err := eng.CampaignFormat(spec, *csv)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
		return 0
	case *machines:
		reg := repro.DefaultMachineRegistry()
		fmt.Fprintln(stdout, "Registered machines:")
		for _, m := range reg.Machines() {
			fmt.Fprintf(stdout, "  %-12s %s\n", m.Label, m)
		}
		return 0
	case *sweep != "":
		axis, values, err := parseSweep(*sweep)
		if err != nil {
			fmt.Fprintln(stderr, "sg2042sim:", err)
			fs.Usage()
			return 2
		}
		label := *machineLabel
		if label == "" {
			label = "SG2042"
		}
		base, err := repro.DefaultMachineRegistry().Resolve(label)
		if err != nil {
			return fail(err)
		}
		eng := repro.NewEngine(repro.Options{Parallel: *parallel})
		out, err := eng.SweepFormat(repro.SweepSpec{
			Base: base, Axis: axis, Values: values,
			Threads: *threads, Prec: repro.F64,
		}, *csv)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
		return 0
	case *machineLabel != "":
		m, err := repro.DefaultMachineRegistry().Resolve(*machineLabel)
		if err != nil {
			return fail(err)
		}
		spec, err := repro.MachineJSON(m)
		if err != nil {
			return fail(err)
		}
		stdout.Write(spec)
		return 0
	case *roofline != "":
		out, err := repro.RooflineReport(*roofline, repro.F64)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
		return 0
	case *clusterNode != "":
		out, err := repro.ClusterScalingReport(*clusterNode, *network, 512, repro.F64, nil, *sockets)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
		return 0
	case *list:
		fmt.Fprintln(stdout, "Available experiments:")
		for _, info := range repro.Experiments() {
			fmt.Fprintf(stdout, "  %-9s %s\n", info.Name, info.Desc)
		}
		fmt.Fprintln(stdout, "  all")
		return 0
	case *headline:
		out, err := repro.HeadlineSummary()
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
		return 0
	case *exp == "":
		fmt.Fprintln(stderr, "sg2042sim: pass -exp <name>, -sweep <axis=v1,v2,...>, -campaign <spec.json>, -headline, -list or -machines")
		fs.Usage()
		return 2
	}

	eng := repro.NewEngine(repro.Options{Parallel: *parallel, CSV: *csv})
	out, err := eng.Run(*exp)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, out)
	return 0
}

// parseSweep splits a -sweep flag value "axis=v1,v2,..." into its axis
// and values. Axis names and value semantics are validated by the
// engine; this only parses the syntax.
func parseSweep(s string) (repro.SweepAxis, []float64, error) {
	axis, list, ok := strings.Cut(s, "=")
	if !ok || axis == "" || list == "" {
		return "", nil, fmt.Errorf("bad -sweep %q (want axis=v1,v2,... e.g. vector=128,256,512)", s)
	}
	parts := strings.Split(list, ",")
	values := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad -sweep value %q (want numbers, e.g. vector=128,256,512)", part)
		}
		values = append(values, v)
	}
	return repro.SweepAxis(strings.ToLower(strings.TrimSpace(axis))), values, nil
}
