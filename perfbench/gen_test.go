package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/fabric"
)

var seeds = []int64{1, 2, 3, 17, 424242}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range seeds {
			a, _ := json.Marshal(w.gen(seed))
			b, _ := json.Marshal(w.gen(seed))
			if string(a) != string(b) {
				t.Errorf("%s seed %d: two generations differ", w.name, seed)
			}
			c, _ := json.Marshal(w.gen(seed + 1))
			if string(a) == string(c) {
				t.Errorf("%s: seeds %d and %d give the same sequence", w.name, seed, seed+1)
			}
		}
	}
}

// Render-cache and plan-cache bounds of sg2042d (internal/serve
// rendercache.go, internal/core plan.go). A round's daemon must stay far
// below them, or part-way through a run the caches would change regime.
const (
	maxPlans = 128
	// renderBudget keeps the render cache at 16 entries per shard on
	// average, a quarter of the 64-entry shard cap, so no shard evicts.
	renderBudget = 256
	// maxDerived is the derivation memo's bound (internal/machine memo.go).
	maxDerived = 4096
	// corpusEntries is what -prewarm puts in the render cache.
	corpusEntries = 117
)

// distinctBodies counts distinct campaign specs in ops.
func distinctBodies(ops []op) int {
	seen := map[string]bool{}
	for _, o := range ops {
		if o.Body != "" {
			seen[o.Body] = true
		}
	}
	return len(seen)
}

// derivedMachines counts the distinct machines the campaigns derive.
func derivedMachines(t *testing.T, ops []op) int {
	seen := map[string]bool{}
	for _, o := range ops {
		s, err := specOf(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.Machines {
			prefixes := []string{m}
			for _, ax := range s.Axes {
				var next []string
				for _, p := range prefixes {
					for _, v := range ax.Values {
						k := p + "/" + ax.Axis + "=" + jsonNumber(v)
						seen[k] = true
						next = append(next, k)
					}
				}
				prefixes = next
			}
		}
	}
	return len(seen)
}

func jsonNumber(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func checkBounds(t *testing.T, name string, seq sequence) {
	t.Helper()
	all := seq.all()
	if n := distinctBodies(all); n >= maxPlans {
		t.Errorf("%s: %d distinct specs reach the plan cache bound %d", name, n, maxPlans)
	}
	if n := corpusEntries + distinctBodies(all); n > renderBudget {
		t.Errorf("%s: %d render cache entries exceed the budget %d", name, n, renderBudget)
	}
	if n := derivedMachines(t, all); n >= maxDerived {
		t.Errorf("%s: %d derived machines reach the memo bound %d", name, n, maxDerived)
	}
}

func TestCampaignColdNeverRepeats(t *testing.T) {
	for _, seed := range seeds {
		seq := genCampaignCold(seed)
		values := map[float64]int{}
		bodies := map[string]bool{}
		for i, o := range seq.all() {
			if bodies[o.Body] {
				t.Fatalf("seed %d: op %d repeats a spec", seed, i)
			}
			bodies[o.Body] = true
			if o.Points != seq.Timed[0].Points {
				t.Errorf("seed %d: op %d has %d points, op 0 has %d", seed, i, o.Points, seq.Timed[0].Points)
			}
			s, err := specOf(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, ax := range s.Axes {
				for _, v := range ax.Values {
					values[v]++
				}
			}
		}
		for v, n := range values {
			if n != 1 {
				t.Errorf("seed %d: axis value %v appears in %d ops", seed, v, n)
			}
		}
		for _, w := range seq.Warmup {
			for _, o := range seq.Timed {
				if w.Body == o.Body {
					t.Errorf("seed %d: a warm-up op is also timed", seed)
				}
			}
		}
		if seq.Timed[0].Points != 256 {
			t.Errorf("cold campaigns have %d points, want 256", seq.Timed[0].Points)
		}
		checkBounds(t, "campaign-cold", seq)
	}
}

func TestCampaignOverlapSharesAndRepeats(t *testing.T) {
	for _, seed := range seeds {
		seq := genCampaignOverlap(seed)
		seen := map[string]bool{}
		for _, o := range seq.Warmup {
			seen[o.Body] = true
		}
		repeats := 0
		for _, o := range seq.Timed {
			if seen[o.Body] {
				repeats++
			}
			seen[o.Body] = true
		}
		if repeats != overlapRepeats || 4*repeats != len(seq.Timed) {
			t.Errorf("seed %d: %d of %d timed ops repeat an earlier op, want exactly a quarter", seed, repeats, len(seq.Timed))
		}
		checkBounds(t, "campaign-overlap", seq)
	}
}

func TestArtefactMixIsSeedIndependent(t *testing.T) {
	count := func(ops []op) map[string]int {
		m := map[string]int{}
		for _, o := range ops {
			m[o.key()]++
		}
		return m
	}
	want := count(genArtefactRead(seeds[0]).Timed)
	for _, seed := range seeds[1:] {
		got := count(genArtefactRead(seed).Timed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d distinct requests, want %d", seed, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("seed %d: %q issued %d times, want %d", seed, k, got[k], n)
			}
		}
	}
	cached, cond, gz := 0, 0, 0
	for _, o := range genArtefactRead(1).Timed {
		if o.Path[:len("/v1/machines")] == "/v1/machines" {
			continue
		}
		cached++
		if o.Cond {
			cond++
		}
		if o.Gzip {
			gz++
		}
	}
	if 4*cond != cached || 4*gz != cached {
		t.Errorf("of %d cached GETs %d are conditional and %d accept gzip, want a quarter each", cached, cond, gz)
	}
	if n := len(artefactURLs()); n != corpusEntries {
		t.Errorf("artefact corpus has %d renderings, sg2042d -prewarm fills %d", n, corpusEntries)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s does not match %s", d.unit, d.name, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	same := func(what string, defs []metricDef, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(file) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", what, len(defs), len(file))
			return
		}
		for i := range defs {
			if defs[i].name != file[i].Name || defs[i].unit != file[i].Unit {
				t.Errorf("%s %d: benchmark %s %s, BENCHMARK.json %s %s", what, i, defs[i].name, defs[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
}

// TestColdOpsSplitEvenly checks, through the planner's own fingerprints,
// that every campaign-cold op gives each fabric-cold worker exactly half
// its points, so seeds differ in values but not in distributed work.
func TestColdOpsSplitEvenly(t *testing.T) {
	var targets []string
	for _, a := range workerAddrs {
		targets = append(targets, "http://"+a)
	}
	ring, err := fabric.NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		for i, o := range genCampaignCold(seed).all() {
			spec, err := repro.CampaignSpecFromJSON([]byte(o.Body), nil)
			if err != nil {
				t.Fatal(err)
			}
			fps, err := spec.Fingerprints()
			if err != nil {
				t.Fatal(err)
			}
			first := 0
			for _, fp := range fps {
				owner, err := ring.Owner(fp, nil)
				if err != nil {
					t.Fatal(err)
				}
				if owner == targets[0] {
					first++
				}
			}
			if 2*first != len(fps) {
				t.Errorf("seed %d op %d: the first worker owns %d of %d points", seed, i, first, len(fps))
			}
		}
	}
}

func TestOverlapSeedsShareOneShape(t *testing.T) {
	// Replacing every clock value by its rank in the sequence's pool
	// must give the same sequence for every seed.
	shape := func(seq sequence) string {
		rank := map[float64]int{}
		for _, o := range seq.all() {
			s, err := specOf(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range s.Axes[0].Values {
				rank[v] = 0
			}
		}
		var vals []float64
		for v := range rank {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		for i, v := range vals {
			rank[v] = i
		}
		var out []string
		for _, o := range seq.all() {
			s, _ := specOf(o)
			for i, v := range s.Axes[0].Values {
				s.Axes[0].Values[i] = float64(rank[v])
			}
			b, _ := json.Marshal(s)
			out = append(out, string(b))
		}
		return strings.Join(out, "\n")
	}
	want := shape(genCampaignOverlap(seeds[0]))
	for _, seed := range seeds[1:] {
		if got := shape(genCampaignOverlap(seed)); got != want {
			t.Errorf("seed %d shapes its overlap sequence differently from seed %d", seed, seeds[0])
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	run := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(run, kids); got != 40 {
		t.Errorf("covered = %d, want 40 (10-40 and 90-100)", got)
	}
	if got := covered(run, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestFlagOutliers(t *testing.T) {
	rs := []round{{Counts: counts{SuiteMisses: 5}}, {Counts: counts{SuiteMisses: 5}}, {Counts: counts{SuiteMisses: 4}}}
	if n := flagOutliers(rs); n != 1 || !rs[2].Flagged || rs[0].Flagged {
		t.Errorf("flagged %d rounds (%v %v %v), want only the third", n, rs[0].Flagged, rs[1].Flagged, rs[2].Flagged)
	}
}
