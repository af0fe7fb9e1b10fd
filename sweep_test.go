package repro

import (
	"fmt"
	"strings"
	"testing"
)

// ExampleEngine_Sweep shows the what-if surface: sweep the SG2042's
// vector width through the widths the x86 comparators ship, on one
// core, and read the class-level speedups against the stock machine.
func ExampleEngine_Sweep() {
	eng := NewEngine(Options{Parallel: 4})
	fig, err := eng.Sweep(SweepSpec{
		Base:    SG2042(),
		Axis:    SweepVector,
		Values:  []float64{128, 256, 512},
		Threads: 1,
		Prec:    F64,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(fig.Title)
	for _, s := range fig.Series {
		fmt.Println(s.Label)
	}
	// Output:
	// Sweep: SG2042 over vector = 128, 256, 512 (FP64, block placement, 1 thread)
	// SG2042/v128
	// SG2042/v256
	// SG2042/v512
}

func vectorSweep(threads int) SweepSpec {
	return SweepSpec{Base: SG2042(), Axis: SweepVector,
		Values: []float64{128, 256, 512}, Threads: threads}
}

// TestSweepSerialParallelCachedByteIdentical is the sweep's acceptance
// property: the serial path, an 8-worker pool, and a warm cache all
// produce identical bytes, in both text and CSV form.
func TestSweepSerialParallelCachedByteIdentical(t *testing.T) {
	for _, csv := range []bool{false, true} {
		serial, err := RunSweep(vectorSweep(1), Options{Parallel: 1, CSV: csv})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			par, err := RunSweep(vectorSweep(1), Options{Parallel: workers, CSV: csv})
			if err != nil {
				t.Fatal(err)
			}
			if par != serial {
				t.Errorf("csv=%v parallel=%d differs from serial", csv, workers)
			}
		}
		eng := NewEngine(Options{Parallel: 4})
		cold, err := eng.SweepFormat(vectorSweep(1), csv)
		if err != nil {
			t.Fatal(err)
		}
		hitsBefore, missesBefore := eng.CacheStats()
		warm, err := eng.SweepFormat(vectorSweep(1), csv)
		if err != nil {
			t.Fatal(err)
		}
		hitsAfter, missesAfter := eng.CacheStats()
		if cold != serial || warm != cold {
			t.Errorf("csv=%v cached sweep differs from cold/serial", csv)
		}
		if missesAfter != missesBefore {
			t.Errorf("csv=%v warm sweep evaluated %d new configurations, want 0",
				csv, missesAfter-missesBefore)
		}
		if hitsAfter == hitsBefore {
			t.Errorf("csv=%v warm sweep hit the cache zero times", csv)
		}
	}
}

// TestSweepSharesEngineCacheAcrossFormats: one engine serves text and
// CSV sweeps from the same suite evaluations.
func TestSweepSharesEngineCacheAcrossFormats(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	if _, err := eng.SweepFormat(vectorSweep(1), false); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := eng.CacheStats()
	if _, err := eng.SweepFormat(vectorSweep(1), true); err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := eng.CacheStats(); missesAfter != missesBefore {
		t.Error("CSV rendering of a warm sweep re-evaluated the suite")
	}
}

func TestSweepAxes(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	cases := []SweepSpec{
		{Base: SG2042(), Axis: SweepCores, Values: []float64{8, 16, 32, 64}},
		{Base: SG2042(), Axis: SweepClock, Values: []float64{1.5, 2.0, 2.5}, Threads: 1},
		{Base: SG2042(), Axis: SweepNUMA, Values: []float64{1, 2, 4}},
		{Base: SG2044(), Axis: SweepVector, Values: []float64{128, 256}, Threads: 1},
		{Base: SG2042(), Axis: SweepSockets, Values: []float64{1, 2, 4}},
		{Base: SG2042(), Axis: SweepNodes, Values: []float64{1, 2, 4}},
		{Base: SG2042x2(), Axis: SweepNodes, Values: []float64{2, 4}},
	}
	for _, spec := range cases {
		fig, err := eng.Sweep(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Axis, err)
		}
		if len(fig.Series) != len(spec.Values) {
			t.Errorf("%s: %d series for %d values", spec.Axis, len(fig.Series), len(spec.Values))
		}
		for _, s := range fig.Series {
			if len(s.ByClass) == 0 {
				t.Errorf("%s: series %s has no class summaries", spec.Axis, s.Label)
			}
		}
	}
}

// TestSweepCoresScaling: a full-occupancy core sweep on the SG2042 must
// show more cores running the suite faster on balance — the speedup
// that motivates 64-core RISC-V in the first place.
func TestSweepCoresScaling(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	fig, err := eng.Sweep(SweepSpec{Base: SG2042(), Axis: SweepCores, Values: []float64{8, 32}})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(i int) float64 {
		sum, n := 0.0, 0
		for _, cs := range fig.Series[i].ByClass {
			sum += cs.Mean
			n++
		}
		return sum / float64(n)
	}
	if m8, m32 := mean(0), mean(1); m32 <= m8 {
		t.Errorf("32-core variant (%.2fx) not faster than 8-core (%.2fx)", m32, m8)
	}
}

// TestSweepVectorWidthIsMemoryBound pins the sweep's headline what-if
// answer: widening the C920's vector registers alone barely moves the
// suite, because the model has it bandwidth-bound — the same reason the
// real SG2044's gains came from its memory system, not wider vectors.
// Every class must stay near the stock machine, and nothing may
// regress.
func TestSweepVectorWidthIsMemoryBound(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	fig, err := eng.Sweep(vectorSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for c, cs := range s.ByClass {
			if cs.Mean < 0.90 || cs.Mean > 1.25 {
				t.Errorf("%s %v: class mean %v strayed from the stock machine", s.Label, c, cs.Mean)
			}
		}
	}
}

// TestNodesSweepDeterministic extends the byte-identity contract to
// the topology axes: a nodes sweep past 64 cores produces the same
// bytes serially, on an 8-worker pool, and from a warm cache.
func TestNodesSweepDeterministic(t *testing.T) {
	spec := SweepSpec{Base: SG2042(), Axis: SweepNodes, Values: []float64{1, 2, 4}}
	serial, err := RunSweep(spec, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SG2042/node2", "SG2042/node4"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("nodes sweep missing %q:\n%s", want, serial)
		}
	}
	par, err := RunSweep(spec, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par != serial {
		t.Error("parallel nodes sweep differs from serial")
	}
	eng := NewEngine(Options{Parallel: 4})
	if _, err := eng.SweepFormat(spec, false); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := eng.CacheStats()
	warm, err := eng.SweepFormat(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := eng.CacheStats(); missesAfter != missesBefore {
		t.Error("warm nodes sweep re-evaluated configurations")
	}
	if warm != serial {
		t.Error("cached nodes sweep differs from serial")
	}
}

// TestSocketsSweepPenalisesTheLink: doubling sockets doubles cores and
// controllers, so the suite speeds up — but by less than the
// equivalent WithCores doubling would suggest, because cross-socket
// placements pay the link. The series must at least beat the
// single-socket base and stay finite.
func TestSocketsSweepPenalisesTheLink(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	fig, err := eng.Sweep(SweepSpec{Base: SG2042(), Axis: SweepSockets, Values: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Label != "SG2042/s2" {
			t.Errorf("series label = %q", s.Label)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	eng := NewEngine(Options{Parallel: 2})
	cases := []struct {
		name    string
		spec    SweepSpec
		wantErr string
	}{
		{"nil base", SweepSpec{Axis: SweepCores, Values: []float64{4}}, "no base machine"},
		{"unknown axis", SweepSpec{Base: SG2042(), Axis: "dies", Values: []float64{2}}, "unknown sweep axis"},
		{"no values", SweepSpec{Base: SG2042(), Axis: SweepCores}, "no values"},
		{"fractional cores", SweepSpec{Base: SG2042(), Axis: SweepCores, Values: []float64{2.5}}, "integer"},
		{"zero vector bits", SweepSpec{Base: SG2042(), Axis: SweepVector, Values: []float64{0}}, "integer"},
		{"vectorless widen", SweepSpec{Base: VisionFiveV2(), Axis: SweepVector, Values: []float64{256}}, "no vector unit"},
		{"uneven NUMA", SweepSpec{Base: SG2042(), Axis: SweepNUMA, Values: []float64{3}}, "divide"},
		{"too many points", SweepSpec{Base: SG2042(), Axis: SweepClock, Values: make([]float64, 65)}, "max"},
		{"invalid base", SweepSpec{Base: &Machine{}, Axis: SweepCores, Values: []float64{4}}, "machine"},
	}
	for _, tc := range cases {
		_, err := eng.Sweep(tc.spec)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSweepCustomMachine: a machine defined as JSON data — not a preset
// — sweeps end to end.
func TestSweepCustomMachine(t *testing.T) {
	data, err := MachineJSON(SG2044())
	if err != nil {
		t.Fatal(err)
	}
	custom, err := MachineFromJSON([]byte(strings.Replace(string(data),
		`"label": "SG2044"`, `"label": "SG2044-custom"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunSweep(SweepSpec{Base: custom, Axis: SweepClock,
		Values: []float64{2.0, 2.6}, Threads: 1}, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SG2044-custom/2GHz", "SG2044-custom/2.6GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepGoldenErrors: every sweep rejection reads exactly as
// pinned, and none of them touches the suite cache.
func TestSweepGoldenErrors(t *testing.T) {
	broken := *SG2042()
	broken.Cores = 0
	cases := []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"nil base", SweepSpec{Axis: SweepCores, Values: []float64{4}}, "core: sweep has no base machine"},
		{"invalid base", SweepSpec{Base: &broken, Axis: SweepCores, Values: []float64{4}}, "machine Sophon SG2042 (XuanTie C920): 0 cores"},
		{"unknown axis", SweepSpec{Base: SG2042(), Axis: "dies", Values: []float64{2}}, `core: unknown sweep axis "dies" (want one of cores, clock, vector, numa, sockets, nodes)`},
		{"no values", SweepSpec{Base: SG2042(), Axis: SweepCores}, "core: sweep over cores has no values"},
		{"too many values", SweepSpec{Base: SG2042(), Axis: SweepClock, Values: make([]float64, 65)}, "core: sweep has 65 points, max 64"},
		{"negative threads", SweepSpec{Base: SG2042(), Axis: SweepCores, Values: []float64{4}, Threads: -2}, "core: sweep threads -2 < 0"},
		{"fractional cores", SweepSpec{Base: SG2042(), Axis: SweepCores, Values: []float64{32, 2.5}}, "core: sweep axis cores needs positive integer values, got 2.5"},
		{"vectorless widen", SweepSpec{Base: VisionFiveV2(), Axis: SweepVector, Values: []float64{256}}, "machine V2: no vector unit to widen"},
		{"uneven NUMA", SweepSpec{Base: SG2042(), Axis: SweepNUMA, Values: []float64{3}}, "machine SG2042: 4 memory controllers do not divide across 3 NUMA regions"},
		{"zero clock", SweepSpec{Base: SG2042(), Axis: SweepClock, Values: []float64{2, 0}}, "core: sweep axis clock needs positive finite GHz values, got 0"},
	}
	eng := NewEngine(Options{Parallel: 2})
	for _, c := range cases {
		_, err := eng.Sweep(c.spec)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
	if hits, misses := eng.CacheStats(); hits+misses != 0 {
		t.Errorf("rejected sweeps touched the cache: hits=%d misses=%d", hits, misses)
	}
}
