package perfmodel

import (
	"math"
	"testing"

	"repro/internal/autovec"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

func cfgFor(m *machine.Machine, threads int, pol placement.Policy, p prec.Precision) Config {
	return Config{
		Machine: m, Threads: threads, Placement: pol, Prec: p,
		Compiler: DefaultCompilerFor(m), Mode: autovec.VLS,
	}
}

func timeOf(t *testing.T, mdl *Model, name string, cfg Config) float64 {
	t.Helper()
	spec, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mdl.KernelTime(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seconds <= 0 {
		t.Fatalf("%s: non-positive time %v", name, b.Seconds)
	}
	return b.Seconds
}

func TestAllKernelsAllMachinesProduceTimes(t *testing.T) {
	mdl := New()
	for _, m := range machine.All() {
		for _, spec := range suite.All() {
			for _, p := range prec.Both {
				b, err := mdl.KernelTime(spec, cfgFor(m, 1, placement.Block, p))
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", m.Label, spec.Name, p, err)
				}
				if b.Seconds <= 0 || b.PerRep <= 0 {
					t.Errorf("%s/%s/%v: degenerate time %v", m.Label, spec.Name, p, b.Seconds)
				}
				if b.Seconds < b.PerRep {
					t.Errorf("%s/%s: total < per-rep", m.Label, spec.Name)
				}
			}
		}
	}
}

func TestC920BeatsU74SingleCore(t *testing.T) {
	// Figure 1: "there were no kernels that ran slower on the C920 core
	// than the U74".
	mdl := New()
	sg, v2 := machine.SG2042(), machine.VisionFiveV2()
	for _, spec := range suite.All() {
		for _, p := range prec.Both {
			tc := mustKernelTime(t, mdl, spec.Name, cfgFor(sg, 1, placement.Block, p))
			tu := mustKernelTime(t, mdl, spec.Name, cfgFor(v2, 1, placement.Block, p))
			if tc >= tu {
				t.Errorf("%s %v: C920 %.3g >= U74 %.3g", spec.Name, p, tc, tu)
			}
		}
	}
}

func TestV1SlowerThanV2(t *testing.T) {
	// Figure 1: "at double precision the V1 is between six and three
	// times slower than the V2".
	mdl := New()
	v1, v2 := machine.VisionFiveV1(), machine.VisionFiveV2()
	for _, spec := range suite.All() {
		t1 := mustKernelTime(t, mdl, spec.Name, cfgFor(v1, 1, placement.Block, prec.F64))
		t2 := mustKernelTime(t, mdl, spec.Name, cfgFor(v2, 1, placement.Block, prec.F64))
		if t1 <= t2 {
			t.Errorf("%s: V1 %.3g should be slower than V2 %.3g", spec.Name, t1, t2)
		}
	}
}

func mustKernelTime(t *testing.T, mdl *Model, name string, cfg Config) float64 {
	t.Helper()
	spec, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mdl.KernelTime(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b.Seconds
}

func TestVectorisationHelpsStreamFP32(t *testing.T) {
	// Figure 2: the stream class benefits most from vectorisation, and
	// FP32 more than FP64.
	mdl := New()
	sg := machine.SG2042()
	for _, name := range []string{"ADD", "COPY", "MUL", "TRIAD", "DOT"} {
		base32 := cfgFor(sg, 1, placement.Block, prec.F32)
		scalar32 := base32
		scalar32.ScalarOnly = true
		sp32 := mustKernelTime(t, mdl, name, scalar32) / mustKernelTime(t, mdl, name, base32)
		if sp32 <= 1.1 {
			t.Errorf("%s: FP32 vector speedup %.2f should be > 1.1", name, sp32)
		}
		base64 := cfgFor(sg, 1, placement.Block, prec.F64)
		scalar64 := base64
		scalar64.ScalarOnly = true
		sp64 := mustKernelTime(t, mdl, name, scalar64) / mustKernelTime(t, mdl, name, base64)
		if sp64 < 0.95 {
			t.Errorf("%s: FP64 vectorisation should not hurt much (%.2f)", name, sp64)
		}
		if sp32 <= sp64 {
			t.Errorf("%s: FP32 vector speedup %.2f should exceed FP64 %.2f", name, sp32, sp64)
		}
	}
}

func TestVectorisationNoopForNonVectorisedKernels(t *testing.T) {
	// SORT is never vectorised: scalar-only builds cost the same.
	mdl := New()
	sg := machine.SG2042()
	base := cfgFor(sg, 1, placement.Block, prec.F32)
	scalar := base
	scalar.ScalarOnly = true
	tv := mustKernelTime(t, mdl, "SORT", base)
	ts := mustKernelTime(t, mdl, "SORT", scalar)
	if tv != ts {
		t.Errorf("SORT: vector build %.3g != scalar build %.3g", tv, ts)
	}
}

func TestPlacementOrderingAtMediumThreads(t *testing.T) {
	// Tables 1-3: at 8-32 threads cluster-aware cyclic >= cyclic >=
	// block for the bandwidth-hungry stream class.
	mdl := New()
	sg := machine.SG2042()
	for _, threads := range []int{8, 16, 32} {
		for _, name := range []string{"TRIAD", "ADD", "COPY"} {
			tb := mustKernelTime(t, mdl, name, cfgFor(sg, threads, placement.Block, prec.F32))
			tc := mustKernelTime(t, mdl, name, cfgFor(sg, threads, placement.CyclicNUMA, prec.F32))
			tcc := mustKernelTime(t, mdl, name, cfgFor(sg, threads, placement.ClusterCyclic, prec.F32))
			if tc > tb*1.001 {
				t.Errorf("%s @%d: cyclic %.3g slower than block %.3g", name, threads, tc, tb)
			}
			if tcc > tc*1.001 {
				t.Errorf("%s @%d: cluster %.3g slower than cyclic %.3g", name, threads, tcc, tc)
			}
		}
	}
}

func TestSixtyFourThreadCollapse(t *testing.T) {
	// Tables 1-3: stream speedup collapses at 64 threads (1.6-1.8x)
	// while polybench keeps scaling (>20x).
	mdl := New()
	sg := machine.SG2042()
	t1 := mustKernelTime(t, mdl, "TRIAD", cfgFor(sg, 1, placement.Block, prec.F32))
	t64 := mustKernelTime(t, mdl, "TRIAD", cfgFor(sg, 64, placement.CyclicNUMA, prec.F32))
	streamSp := t1 / t64
	if streamSp > 8 {
		t.Errorf("TRIAD 64-thread speedup %.1f should collapse (< 8)", streamSp)
	}
	g1 := mustKernelTime(t, mdl, "GEMM", cfgFor(sg, 1, placement.Block, prec.F32))
	g64 := mustKernelTime(t, mdl, "GEMM", cfgFor(sg, 64, placement.CyclicNUMA, prec.F32))
	gemmSp := g1 / g64
	if gemmSp < 15 {
		t.Errorf("GEMM 64-thread speedup %.1f should stay high (>= 15)", gemmSp)
	}
	if gemmSp <= streamSp {
		t.Error("polybench must out-scale stream at 64 threads")
	}
	// And 16-thread stream scaling must be healthy (cluster placement).
	t16 := mustKernelTime(t, mdl, "TRIAD", cfgFor(sg, 16, placement.ClusterCyclic, prec.F32))
	if sp := t1 / t16; sp < 4 {
		t.Errorf("TRIAD 16-thread cluster speedup %.1f should be >= 4", sp)
	}
}

func TestX86SingleCoreFP64Faster(t *testing.T) {
	// Figure 4: "all x86 cores tend to outperform the C920 apart from
	// the Sandybridge ... for stream and algorithm benchmark classes".
	mdl := New()
	sg := machine.SG2042()
	sgCfg := cfgFor(sg, 1, placement.Block, prec.F64)
	for _, x := range []*machine.Machine{machine.EPYC7742(), machine.Xeon6330()} {
		xCfg := cfgFor(x, 1, placement.Block, prec.F64)
		faster := 0
		for _, spec := range suite.All() {
			ts := mustKernelTime(t, mdl, spec.Name, sgCfg)
			tx := mustKernelTime(t, mdl, spec.Name, xCfg)
			if tx < ts {
				faster++
			}
		}
		if faster < 48 {
			t.Errorf("%s: only %d/64 kernels faster than C920 at FP64", x.Label, faster)
		}
	}
	// Sandybridge is closer: it must lose some stream/algorithm kernels.
	snb := machine.XeonE52609()
	snbCfg := cfgFor(snb, 1, placement.Block, prec.F64)
	slower := 0
	for _, name := range []string{"ADD", "COPY", "MUL", "TRIAD", "MEMSET", "MEMCPY"} {
		ts := mustKernelTime(t, mdl, name, sgCfg)
		tx := mustKernelTime(t, mdl, name, snbCfg)
		if tx > ts {
			slower++
		}
	}
	if slower == 0 {
		t.Error("Sandybridge should lose at least one bandwidth kernel to the C920")
	}
}

func TestVLASlowerThanVLSOnC920(t *testing.T) {
	// Figure 3 / conclusions: "VLS tends to outperform VLA".
	mdl := New()
	sg := machine.SG2042()
	vls := Config{Machine: sg, Threads: 1, Placement: placement.Block,
		Prec: prec.F32, Compiler: autovec.Clang16, Mode: autovec.VLS}
	vla := vls
	vla.Mode = autovec.VLA
	for _, name := range []string{"JACOBI_1D", "HEAT_3D", "GESUMMV"} {
		tvls := mustKernelTime(t, mdl, name, vls)
		tvla := mustKernelTime(t, mdl, name, vla)
		if tvla < tvls {
			t.Errorf("%s: VLA %.3g should not beat VLS %.3g", name, tvla, tvls)
		}
	}
}

func TestAtomicContentionDegrades(t *testing.T) {
	// PI_ATOMIC hammers one location: more threads must not help much.
	mdl := New()
	sg := machine.SG2042()
	t1 := mustKernelTime(t, mdl, "PI_ATOMIC", cfgFor(sg, 1, placement.Block, prec.F64))
	t16 := mustKernelTime(t, mdl, "PI_ATOMIC", cfgFor(sg, 16, placement.CyclicNUMA, prec.F64))
	if t1/t16 > 2 {
		t.Errorf("PI_ATOMIC 16-thread speedup %.2f should be poor (< 2)", t1/t16)
	}
	// PI_REDUCE (no atomics) must scale far better.
	r1 := mustKernelTime(t, mdl, "PI_REDUCE", cfgFor(sg, 1, placement.Block, prec.F64))
	r16 := mustKernelTime(t, mdl, "PI_REDUCE", cfgFor(sg, 16, placement.CyclicNUMA, prec.F64))
	if r1/r16 < 4 {
		t.Errorf("PI_REDUCE 16-thread speedup %.2f should be >= 4", r1/r16)
	}
}

func TestSeqOnlyKernelDoesNotScale(t *testing.T) {
	mdl := New()
	sg := machine.SG2042()
	t1 := mustKernelTime(t, mdl, "GEN_LIN_RECUR", cfgFor(sg, 1, placement.Block, prec.F64))
	t32 := mustKernelTime(t, mdl, "GEN_LIN_RECUR", cfgFor(sg, 32, placement.CyclicNUMA, prec.F64))
	if t32 < t1 {
		t.Error("GEN_LIN_RECUR must not speed up with threads (recurrence)")
	}
}

func TestBreakdownConsistency(t *testing.T) {
	mdl := New()
	spec, _ := suite.ByName("TRIAD")
	b, err := mdl.KernelTime(spec, cfgFor(machine.SG2042(), 4, placement.CyclicNUMA, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	if b.ServedBy == "" {
		t.Error("ServedBy empty")
	}
	if b.SyncSec <= 0 {
		t.Error("multi-thread run should pay sync overhead")
	}
	want := b.PerRep * float64(spec.Reps)
	if diff := b.Seconds - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Seconds %v != PerRep*Reps %v", b.Seconds, want)
	}
}

func TestErrors(t *testing.T) {
	mdl := New()
	spec, _ := suite.ByName("TRIAD")
	if _, err := mdl.KernelTime(spec, Config{}); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := mdl.KernelTime(spec, Config{Machine: machine.SG2042()}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := mdl.KernelTime(spec, cfgFor(machine.VisionFiveV2(), 8, placement.Block, prec.F32)); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestDefaultCompilerFor(t *testing.T) {
	if DefaultCompilerFor(machine.SG2042()) != autovec.GCCXuanTie {
		t.Error("RISC-V machines use the XuanTie GCC")
	}
	if DefaultCompilerFor(machine.EPYC7742()) != autovec.GCCx86 {
		t.Error("x86 machines use mainline GCC")
	}
	if DefaultCompilerFor(machine.VisionFiveV2()) != autovec.GCCXuanTie {
		t.Error("U74 machines use the RISC-V GCC (vectorisation is moot)")
	}
}

func TestProblemNOverride(t *testing.T) {
	mdl := New()
	spec, _ := suite.ByName("TRIAD")
	small := cfgFor(machine.SG2042(), 1, placement.Block, prec.F64)
	small.ProblemN = 1024
	big := small
	big.ProblemN = 1 << 22
	bs, _ := mdl.KernelTime(spec, small)
	bb, _ := mdl.KernelTime(spec, big)
	if bs.Seconds >= bb.Seconds {
		t.Error("larger problems must take longer")
	}
	if bs.ServedBy == "MEM" {
		t.Errorf("1024-element triad should be cache resident, got %s", bs.ServedBy)
	}
}

// TestAllReduceRoundsMatchesLog2: the integer round count gives the
// hop count the float expression 2·⌈log₂ nd⌉ gave, for every node count
// a machine can reach (2 up to machine.MaxCores, one core a node).
func TestAllReduceRoundsMatchesLog2(t *testing.T) {
	for nd := 2; nd <= machine.MaxCores; nd++ {
		if got, want := float64(2*allReduceRounds(nd)), 2*math.Ceil(math.Log2(float64(nd))); got != want {
			t.Fatalf("%d nodes: %v hops, the float expression gave %v", nd, got, want)
		}
	}
}
