package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Sweep byte pins: the SHA-256 of the text, CSV and binary rendering of
// one sweep per axis (plus a duplicate clock value and an x86 base run
// above its core count), the exact validation error texts, and the
// suite-cache snapshot the sweeps leave behind. A change to the sweep
// evaluation path, the model, the presets or the renderers moves them;
// a change that does says why.

// goldenSweep is one pinned sweep and its three digests.
type goldenSweep struct {
	name              string
	spec              SweepSpec
	text, csv, binary string
}

func goldenSweeps() []goldenSweep {
	return []goldenSweep{
		{name: "cores", spec: SweepSpec{Base: SG2042(), Axis: SweepCores,
			Values: []float64{8, 16, 32, 64}, Prec: F64},
			text:   "39cffbfa12f67628d759dcb8180e4fae2ab02374bc4320b628402dd8fe2413e2",
			csv:    "c07a5591e376e7103657801ef6b68436b0be237a3e5d28c5054358b1aba7cc96",
			binary: "1fd990d54368055ca4615fff42502c61f339d3241a112940508067d956b4f374"},
		{name: "clock-duplicate", spec: SweepSpec{Base: SG2042(), Axis: SweepClock,
			Values: []float64{1.5, 2.0, 2.0, 2.6}, Threads: 16, Prec: F64},
			text:   "b734b6a0d51ac267fd5f99659cfb1b41ba28f3ece7d1a3a220fb0fd5a966c2d0",
			csv:    "4f58fc529e0a57fc37a18756be638a3a3be3a6febab3ab3b294bec5056706e95",
			binary: "5254da6d795143378f8e2e54c4de733b2313a981bda5175193bcadb3b474a504"},
		{name: "vector", spec: SweepSpec{Base: SG2042(), Axis: SweepVector,
			Values: []float64{128, 256, 512}, Threads: 1},
			text:   "c4d5fc3a352d827277086ba9531b7537926cd7e10819a5fe42495454ccabb549",
			csv:    "e8268d71d12e9cd5e531657a53e3c71c1c6d7af179d903e0ea930e1b3038a67d",
			binary: "49a17a0721e93ad9cfaa609c91f03d9c7b92a56448524ea2894ed60f122b615f"},
		{name: "numa", spec: SweepSpec{Base: SG2042(), Axis: SweepNUMA,
			Values: []float64{1, 2, 4}, Placement: CyclicNUMA, Prec: F64},
			text:   "4ea56e0f058a891c2938c5441e27c2258842486bfa1bfecc10ab4b19c4ca33fb",
			csv:    "efa65fdc2e500839047c6554b1a72f52b56bb99ed0539703c0d1b3768acbfa2f",
			binary: "a0796e250745b6f86d7b444532898da7295efbc5698a1222791fdc07e4a7fc2b"},
		{name: "sockets", spec: SweepSpec{Base: SG2042(), Axis: SweepSockets,
			Values: []float64{1, 2, 4}, Prec: F64},
			text:   "979354f0830532add2ca995ec89a42702fc32fd1c6fbb0330f47bdf808d4ba3e",
			csv:    "3c7616f3be5ff4afb4281afe337230859e557d9342545f923234ed45a56cd4a0",
			binary: "43d9a235eeac65633673f410107c51fa0c4953fa1d1f067aad3f8b6d6f8eafd5"},
		{name: "nodes", spec: SweepSpec{Base: SG2042(), Axis: SweepNodes,
			Values: []float64{1, 2, 4}, Threads: 32, Placement: ClusterCyclic},
			text:   "7ca916e7bf2d0427c4e86cef676ed8cb4cbb5c458aa85de3c156b6460d4b7e38",
			csv:    "548d03e051ad733911e85df9e18c8adf3e7b837df17f219d807ef3423dc60bc0",
			binary: "d7375a68217c4ab7d6b99f706cf938979a1c05665711a712cd620b43a838bf67"},
		{name: "rome-threads-above-cores", spec: SweepSpec{Base: EPYC7742(), Axis: SweepClock,
			Values: []float64{2.25, 3.0}, Threads: 96, Prec: F64},
			text:   "72d018cbfc008ea51d6274a41efca4260cebe0c281d2525a70b0291909fb3910",
			csv:    "fc80a0e0edb099500ffb17bf103469266f50dacc8aa9926e845289894e652d34",
			binary: "5c6579942d5c820d7aafc3bc3085336d1d13425d590a5558a2413b69c4a44387"},
	}
}

// goldenSweepSnapshotSHA256 pins the suite cache the golden sweeps
// leave behind in one engine.
const goldenSweepSnapshotSHA256 = "8b059340459cb9fa21260b80639dc8f6f09e56dfb3632a10c85928b48170d2d9"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSweepGoldenDigests: every golden sweep renders to its pinned
// bytes, and the suite cache they fill snapshots to its pinned digest.
func TestSweepGoldenDigests(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	for _, g := range goldenSweeps() {
		text, err := eng.SweepFormat(g.spec, false)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		csv, err := eng.SweepFormat(g.spec, true)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		bin, err := eng.SweepBinary(g.spec)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, c := range []struct {
			form      string
			got, want string
		}{
			{"text", digest([]byte(text)), g.text},
			{"csv", digest([]byte(csv)), g.csv},
			{"binary", digest(bin), g.binary},
		} {
			if c.got != c.want {
				t.Errorf("%s %s SHA-256 = %s, want %s", g.name, c.form, c.got, c.want)
			}
		}
	}
	snap, err := eng.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(snap); got != goldenSweepSnapshotSHA256 {
		t.Errorf("snapshot SHA-256 = %s (%d bytes), want %s", got, len(snap), goldenSweepSnapshotSHA256)
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
