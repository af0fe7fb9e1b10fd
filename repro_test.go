package repro

import (
	"strings"
	"testing"
)

func TestRunExperimentAllNames(t *testing.T) {
	for _, name := range ExperimentNames {
		out, err := RunExperiment(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short output (%d bytes)", name, len(out))
		}
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentAll(t *testing.T) {
	out, err := RunExperiment("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "Table 1", "Table 2", "Table 3",
		"Figure 2", "Figure 3", "Table 4", "Figure 4", "Figure 5", "Figure 6", "Figure 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("combined output missing %q", want)
		}
	}
}

func TestRunExperimentCSV(t *testing.T) {
	for _, name := range []string{"figure1", "table2", "figure3", "figure6"} {
		out, err := RunExperimentCSV(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, ",") {
			t.Errorf("%s: no CSV content", name)
		}
	}
	if _, err := RunExperimentCSV("bogus"); err == nil {
		t.Error("unknown CSV experiment accepted")
	}
}

func TestPublicKernelAccess(t *testing.T) {
	if len(Kernels()) != 64 {
		t.Errorf("Kernels() = %d entries, want 64", len(Kernels()))
	}
	if len(KernelNames()) != 64 {
		t.Error("KernelNames() should list 64 names")
	}
	if len(KernelsByClass(Stream)) != 5 {
		t.Error("Stream class should have 5 kernels")
	}
	if _, err := KernelByName("TRIAD"); err != nil {
		t.Error(err)
	}
	if _, err := KernelByName("NOPE"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// The public API hands out deep-enough copies: mutating a returned
// spec — including its nested loop IR — must never reach the shared
// internal registry.
func TestPublicKernelsAreCopies(t *testing.T) {
	ks := Kernels()
	origName := ks[0].Name
	origPerIter := ks[0].Loop.Accesses[0].PerIter
	ks[0].Name = "CORRUPTED"
	ks[0].Loop.Accesses[0].PerIter = origPerIter + 100
	fresh := Kernels()
	if fresh[0].Name != origName {
		t.Error("mutating Kernels()[0].Name reached the registry")
	}
	if fresh[0].Loop.Accesses[0].PerIter != origPerIter {
		t.Error("mutating Kernels()[0].Loop.Accesses reached the registry")
	}
	names := KernelNames()
	names[0] = "CORRUPTED"
	if KernelNames()[0] != origName {
		t.Error("mutating KernelNames() reached the registry")
	}
	one, err := KernelByName("TRIAD")
	if err != nil {
		t.Fatal(err)
	}
	onePerIter := one.Loop.Accesses[0].PerIter
	one.Loop.Accesses[0].PerIter = onePerIter + 100
	again, _ := KernelByName("TRIAD")
	if again.Loop.Accesses[0].PerIter != onePerIter {
		t.Error("mutating KernelByName result reached the registry")
	}
}

func TestPublicMachineAccess(t *testing.T) {
	if len(Machines()) != 7 {
		t.Errorf("Machines() = %d, want 7", len(Machines()))
	}
	if len(X86Machines()) != 4 {
		t.Error("X86Machines() should return 4 CPUs")
	}
	if m, err := DefaultMachineRegistry().Resolve("SG2042"); err != nil || m.Cores != 64 {
		t.Errorf("Resolve(SG2042) = %v, %v", m, err)
	}
	if DefaultCompilerFor(SG2042()) != GCCXuanTie {
		t.Error("SG2042 should default to the XuanTie GCC")
	}
}

func TestRunOnHost(t *testing.T) {
	res, err := RunOnHost("TRIAD", 4096, 2, 2, F64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.PerRep <= 0 {
		t.Error("no time measured")
	}
	if res.Checksum == 0 {
		t.Error("zero checksum")
	}
	if res.String() == "" {
		t.Error("empty render")
	}
	if _, err := RunOnHost("NOPE", 0, 1, 1, F64); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestRunClassOnHost(t *testing.T) {
	rs, err := RunClassOnHost(Stream, 2, F32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Errorf("got %d results, want 5", len(rs))
	}
}

func TestVerifyHostParallelism(t *testing.T) {
	seq, par, err := VerifyHostParallelism("DAXPY", 10000, 3, F64)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Threads != 1 || par.Threads != 3 {
		t.Error("thread counts wrong")
	}
}

func TestRVVHelpers(t *testing.T) {
	src, err := RVVKernelAssembly("triad", "rvv1.0", 32, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "vle32.v") {
		t.Errorf("v1.0 triad should use vle32.v:\n%s", src)
	}
	rolled, err := RollbackRVV(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rolled, "vlw.v") {
		t.Errorf("rolled-back code should use vlw.v:\n%s", rolled)
	}
	if _, err := RVVKernelAssembly("bogus", "rvv1.0", 32, false); err == nil {
		t.Error("unknown template accepted")
	}
}

func TestHeadlineSummary(t *testing.T) {
	out, err := HeadlineSummary()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"C920 vs U74", "Rome", "Sandybridge", "multithreaded"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline summary missing %q:\n%s", want, out)
		}
	}
}

func TestRooflineReport(t *testing.T) {
	out, err := RooflineReport("SG2042", F64)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vector peak", "DRAM", "TRIAD"} {
		if !strings.Contains(out, want) {
			t.Errorf("roofline report missing %q", want)
		}
	}
	if _, err := RooflineReport("nope", F64); err == nil {
		t.Error("unknown machine accepted")
	}
	share, err := MemoryBoundShare("SG2042", F64)
	if err != nil || share <= 0 || share > 1 {
		t.Errorf("MemoryBoundShare = %v, %v", share, err)
	}
	if _, err := MemoryBoundShare("nope", F64); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestClusterScalingReport(t *testing.T) {
	out, err := ClusterScalingReport("SG2042", "ib", 256, F64, []int{1, 2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Strong scaling", "Weak scaling", "InfiniBand"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster report missing %q", want)
		}
	}
	// Defaults fill in.
	if _, err := ClusterScalingReport("Rome", "eth", 0, F32, nil, 0); err != nil {
		t.Error(err)
	}
	if _, err := ClusterScalingReport("nope", "ib", 256, F64, nil, 0); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := ClusterScalingReport("SG2042", "carrier-pigeon", 256, F64, nil, 0); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestHostDefaultN(t *testing.T) {
	if n := hostDefaultN(1 << 20); n != 1<<18 {
		t.Errorf("large default scaled to %d", n)
	}
	if n := hostDefaultN(640); n != 128 {
		t.Errorf("matrix default scaled to %d", n)
	}
	if n := hostDefaultN(100); n != 100 {
		t.Errorf("small default changed to %d", n)
	}
}
