package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
)

// exec runs the command body and captures exit code, stdout and stderr.
func exec(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListFlag(t *testing.T) {
	code, out, errOut := exec("-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, name := range repro.ExperimentNames {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q", name)
		}
	}
	if !strings.Contains(out, "all") {
		t.Error("-list output missing the all pseudo-experiment")
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, out, errOut := exec("-exp", "figure99")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if out != "" {
		t.Errorf("unknown experiment wrote to stdout: %q", out)
	}
	if !strings.Contains(errOut, "figure99") || !strings.Contains(errOut, "figure1") {
		t.Errorf("stderr should name the bad input and the valid names: %q", errOut)
	}
}

// TestCSVTable4 covers the documented fallback: table4 has no CSV form
// and renders as text even under -csv.
func TestCSVTable4(t *testing.T) {
	code, out, errOut := exec("-exp", "table4", "-csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "Table 4: Summary of x86 CPUs") {
		t.Errorf("-csv table4 should fall back to the text table, got %q", out)
	}
	want, err := repro.RunExperimentCSV("table4")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Error("-csv table4 differs from RunExperimentCSV(table4)")
	}
}

func TestCSVFlagMatchesLibrary(t *testing.T) {
	code, out, errOut := exec("-exp", "figure3", "-csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	want, err := repro.RunExperimentCSV("figure3")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Error("-exp figure3 -csv differs from RunExperimentCSV(figure3)")
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	code, _, errOut := exec()
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-exp") {
		t.Errorf("usage message should mention -exp: %q", errOut)
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	code, _, _ := exec("-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestHelpExitsZero: -h prints usage and succeeds, like flag's default
// ExitOnError behaviour.
func TestHelpExitsZero(t *testing.T) {
	code, _, errOut := exec("-h")
	if code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errOut, "-exp") {
		t.Errorf("-h: usage should list the flags: %q", errOut)
	}
}

// TestParallelFlagSameBytes is the CLI face of the determinism
// contract (docs/ARCHITECTURE.md): each output below is byte-identical
// at -parallel 1 and -parallel 8, and is the body the daemon serves for
// the request beside it, whose SHA-256 internal/serve's byte manifest
// pins.
func TestParallelFlagSameBytes(t *testing.T) {
	const (
		campaign = "../../examples/campaign/spec.json"
		scaling  = "../../examples/scaling/campaign.json"
	)
	type pair struct {
		args    []string
		request string // method, path and body name of a manifest line
	}
	pairs := []pair{
		{[]string{"-campaign", campaign}, "POST /v1/campaign?format=text campaign-spec"},
		{[]string{"-campaign", campaign, "-csv"}, "POST /v1/campaign?format=csv campaign-spec"},
		{[]string{"-campaign", scaling}, "POST /v1/campaign?format=text scaling-spec"},
		{[]string{"-campaign", scaling, "-csv"}, "POST /v1/campaign?format=csv scaling-spec"},
		{[]string{"-sweep", "cores=8,16,32,64"}, "POST /v1/sweep?format=text sweep-label"},
		{[]string{"-sweep", "cores=8,16,32,64", "-csv"}, "POST /v1/sweep?format=csv sweep-label"},
	}
	// -exp all and every experiment alone, text and CSV (table4 has no
	// CSV form; the daemon answers its text for ?format=csv too).
	for _, name := range append(slices.Clone(repro.ExperimentNames), "all") {
		pairs = append(pairs,
			pair{[]string{"-exp", name}, "GET /v1/experiments/" + name + "?format=text -"},
			pair{[]string{"-exp", name, "-csv"}, "GET /v1/experiments/" + name + "?format=csv -"})
	}
	manifest := manifestDigests(t)
	for _, p := range pairs {
		var outs [2]string
		for i, parallel := range []string{"1", "8"} {
			code, out, errOut := exec(slices.Concat(p.args, []string{"-parallel", parallel})...)
			if code != 0 {
				t.Fatalf("%v -parallel %s: exit %d, stderr: %s", p.args, parallel, code, errOut)
			}
			outs[i] = out
		}
		if outs[0] != outs[1] {
			t.Errorf("%v: -parallel 8 changed the output bytes", p.args)
		}
		want, ok := manifest[p.request]
		if !ok {
			t.Fatalf("the byte manifest has no line for %q", p.request)
		}
		if sum := sha256.Sum256([]byte(outs[0])); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%v: output is not the body the manifest pins for %s", p.args, p.request)
		}
	}
}

// manifestDigests reads internal/serve's byte manifest into a map from
// "method path body-name" to the SHA-256 of the identity-encoded body.
func manifestDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../internal/serve/testdata/http_manifest.txt")
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 8 { // a ninth column is a Content-Encoding
			continue
		}
		key := f[0] + " " + f[1] + " " + f[2]
		if _, dup := digests[key]; !dup {
			digests[key] = f[7]
		}
	}
	return digests
}

func TestRooflineAndClusterFlags(t *testing.T) {
	code, out, _ := exec("-roofline", "SG2042")
	if code != 0 || !strings.Contains(out, "SG2042") {
		t.Errorf("-roofline SG2042: exit %d, out %.60q", code, out)
	}
	// Every registry machine has a roofline, in any spelling.
	for _, label := range []string{"SG2044", "SG2042x2", "sg2042"} {
		if code, out, errOut := exec("-roofline", label); code != 0 || out == "" {
			t.Errorf("-roofline %s: exit %d, stderr %q", label, code, errOut)
		}
	}
	code, _, errOut := exec("-roofline", "NotAMachine")
	if code != 1 || !strings.Contains(errOut, `unknown machine "NotAMachine" (want one of V1,`) {
		t.Errorf("-roofline with unknown machine: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = exec("-cluster", "SG2042", "-net", "carrier-pigeon")
	if code != 1 || !strings.Contains(errOut, "carrier-pigeon") {
		t.Errorf("-cluster with unknown net: exit %d, stderr %q", code, errOut)
	}
}

func TestMachinesFlag(t *testing.T) {
	code, out, errOut := exec("-machines")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, label := range []string{"SG2042", "SG2044", "V1", "V2", "Rome", "Broadwell", "Icelake", "Sandybridge"} {
		if !strings.Contains(out, label) {
			t.Errorf("-machines output missing %q", label)
		}
	}
}

// TestMachineFlagPrintsSpec: -machine alone prints the JSON spec, the
// exact form MachineFromJSON accepts.
func TestMachineFlagPrintsSpec(t *testing.T) {
	code, out, errOut := exec("-machine", "SG2044")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	m, err := repro.MachineFromJSON([]byte(out))
	if err != nil {
		t.Fatalf("printed spec does not decode: %v", err)
	}
	if m.Label != "SG2044" {
		t.Errorf("decoded label %q", m.Label)
	}
	code, _, errOut = exec("-machine", "SG9999")
	if code != 1 || !strings.Contains(errOut, `unknown machine "SG9999" (want one of V1,`) {
		t.Errorf("unknown -machine: exit %d, stderr %q", code, errOut)
	}
}

// TestSweepFlagMatchesLibrary is the CLI half of the acceptance
// criterion: -sweep output is byte-identical to the library rendering
// (and therefore to POST /v1/sweep, which the serve tests pin to the
// same bytes), in text and CSV, at any -parallel.
func TestSweepFlagMatchesLibrary(t *testing.T) {
	spec := repro.SweepSpec{Base: repro.SG2042(), Axis: repro.SweepVector,
		Values: []float64{128, 256, 512}, Threads: 1, Prec: repro.F64}
	wantText, err := repro.RunSweep(spec, repro.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := repro.RunSweep(spec, repro.Options{Parallel: 1, CSV: true})
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := exec("-machine", "SG2042", "-sweep", "vector=128,256,512", "-threads", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != wantText {
		t.Error("-sweep text differs from the library rendering")
	}
	code, out, _ = exec("-sweep", "vector=128,256,512", "-threads", "1", "-csv", "-parallel", "8")
	if code != 0 {
		t.Fatal("csv sweep failed")
	}
	if out != wantCSV {
		t.Error("-sweep -csv differs from the library rendering (base should default to SG2042)")
	}
}

// TestCampaignFlagMatchesLibrary: -campaign output is byte-identical
// to the library rendering of the same spec file (and therefore to
// POST /v1/campaign, which the serve tests pin to the same bytes), in
// text and CSV, at any -parallel.
func TestCampaignFlagMatchesLibrary(t *testing.T) {
	const specFile = "../../examples/campaign/spec.json"
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := repro.CampaignSpecFromJSON(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantText, err := repro.RunCampaign(spec, repro.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := repro.RunCampaign(spec, repro.Options{Parallel: 1, CSV: true})
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := exec("-campaign", specFile)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != wantText {
		t.Error("-campaign text differs from the library rendering")
	}
	code, out, _ = exec("-campaign", specFile, "-csv", "-parallel", "8")
	if code != 0 {
		t.Fatal("csv campaign failed")
	}
	if out != wantCSV {
		t.Error("-campaign -csv differs from the library rendering")
	}
}

func TestCampaignFlagErrors(t *testing.T) {
	code, _, errOut := exec("-campaign", "no-such-file.json")
	if code != 1 || !strings.Contains(errOut, "no-such-file.json") {
		t.Errorf("missing spec file: exit %d, stderr %q", code, errOut)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"machines": ["SG9999"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = exec("-campaign", bad)
	if code != 1 || !strings.Contains(errOut, "SG9999") {
		t.Errorf("unknown machine in spec: exit %d, stderr %q", code, errOut)
	}
}

func TestSweepFlagErrors(t *testing.T) {
	for _, bad := range []string{"vector", "=128", "vector=", "vector=abc"} {
		code, _, errOut := exec("-sweep", bad)
		if code != 2 {
			t.Errorf("-sweep %q: exit %d, want usage error 2 (stderr %q)", bad, code, errOut)
		}
	}
	// Well-formed syntax with a bad axis or unknown base is a runtime
	// error, not a usage error.
	code, _, errOut := exec("-sweep", "dies=2")
	if code != 1 || !strings.Contains(errOut, "unknown sweep axis") {
		t.Errorf("-sweep dies=2: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = exec("-machine", "SG9999", "-sweep", "cores=4")
	if code != 1 || !strings.Contains(errOut, "SG9999") {
		t.Errorf("unknown base: exit %d, stderr %q", code, errOut)
	}
}
