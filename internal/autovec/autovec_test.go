package autovec

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/suite"
)

func allLoops(t *testing.T) []ir.Loop {
	t.Helper()
	specs := suite.All()
	loops := make([]ir.Loop, len(specs))
	for i, s := range specs {
		loops[i] = s.Loop
	}
	return loops
}

// census tallies AnalyzeKernel's decisions across a set of loops.
type census struct {
	Total         int
	Vectorized    int
	RuntimeScalar int
	// PerKernel maps name -> decision for detailed reports.
	PerKernel map[string]Decision
}

// survey analyses every loop and tallies the counts the paper quotes.
func survey(c Compiler, loops []ir.Loop, requested Mode) census {
	cs := census{Total: len(loops), PerKernel: make(map[string]Decision, len(loops))}
	for _, l := range loops {
		d := AnalyzeKernel(c, l, requested)
		cs.PerKernel[l.Kernel] = d
		if d.Vectorized {
			cs.Vectorized++
			if d.RuntimeScalar {
				cs.RuntimeScalar++
			}
		}
	}
	return cs
}

func TestGCCXuanTieCounts(t *testing.T) {
	// The paper (citing [11]): "out of the 64 kernels in the RAJAPerf
	// benchmark suite only 30 were auto-vectorised by GCC and out of
	// those 30 the scalar code path was executed for 7 of these at
	// runtime".
	cs := survey(GCCXuanTie, allLoops(t), VLS)
	if cs.Total != 64 {
		t.Fatalf("total = %d, want 64", cs.Total)
	}
	if cs.Vectorized != 30 {
		names := vectorizedNames(cs)
		t.Errorf("GCC vectorised %d kernels, want 30: %v", cs.Vectorized, names)
	}
	if cs.RuntimeScalar != 7 {
		t.Errorf("GCC runtime-scalar count = %d, want 7: %v",
			cs.RuntimeScalar, runtimeScalarNames(cs))
	}
}

func TestClangCounts(t *testing.T) {
	// "Clang was able to auto-vectorise 59 kernels with only 3 of these
	// following the scalar path at runtime."
	cs := survey(Clang16, allLoops(t), VLA)
	if cs.Vectorized != 59 {
		t.Errorf("Clang vectorised %d kernels, want 59; not vectorised: %v",
			cs.Vectorized, notVectorizedNames(cs))
	}
	if cs.RuntimeScalar != 3 {
		t.Errorf("Clang runtime-scalar count = %d, want 3: %v",
			cs.RuntimeScalar, runtimeScalarNames(cs))
	}
}

func TestPaperNamedGCCCases(t *testing.T) {
	cs := survey(GCCXuanTie, allLoops(t), VLS)
	// "GCC is unable to auto-vectorise the Warshall and Heat3D kernels".
	for _, name := range []string{"FLOYD_WARSHALL", "HEAT_3D"} {
		if cs.PerKernel[name].Vectorized {
			t.Errorf("GCC should not vectorise %s", name)
		}
	}
	// "whilst Jacobi1D and Jacobi2D are vectorised by GCC the scalar
	// code path is chosen for execution at runtime".
	for _, name := range []string{"JACOBI_1D", "JACOBI_2D"} {
		d := cs.PerKernel[name]
		if !d.Vectorized || !d.RuntimeScalar {
			t.Errorf("GCC should vectorise %s with runtime scalar path (got %+v)", name, d)
		}
	}
	// "the stream class is unique as GCC is able to vectorise all of
	// its constituent kernels" — and they must execute the vector path.
	for _, name := range []string{"ADD", "COPY", "DOT", "MUL", "TRIAD"} {
		d := cs.PerKernel[name]
		if !d.VectorEffective() {
			t.Errorf("GCC should effectively vectorise stream kernel %s (got %+v)", name, d)
		}
	}
	// GCC emits VLS only.
	for name, d := range cs.PerKernel {
		if d.Vectorized && d.Mode != VLS {
			t.Errorf("%s: GCC emitted %v, it only produces VLS", name, d.Mode)
		}
	}
}

func TestPaperNamedClangCases(t *testing.T) {
	cs := survey(Clang16, allLoops(t), VLS)
	// "Clang is able to vectorise all the kernels but the 2MM, 3MM and
	// GEMM kernels execute in scalar mode only" (Figure 3 kernels).
	for _, name := range []string{"2MM", "3MM", "GEMM"} {
		d := cs.PerKernel[name]
		if !d.Vectorized || !d.RuntimeScalar {
			t.Errorf("Clang %s should be vectorised-but-runtime-scalar (got %+v)", name, d)
		}
	}
	// Clang vectorises every Polybench kernel.
	for _, name := range []string{"2MM", "3MM", "ADI", "ATAX", "FDTD_2D",
		"FLOYD_WARSHALL", "GEMM", "GEMVER", "GESUMMV", "HEAT_3D",
		"JACOBI_1D", "JACOBI_2D", "MVT"} {
		if !cs.PerKernel[name].Vectorized {
			t.Errorf("Clang should vectorise Polybench kernel %s", name)
		}
	}
	// The Jacobi2D quirk: Clang's vector code is *worse* than GCC's
	// choice for this kernel (Figure 3's surprise).
	if eff := cs.PerKernel["JACOBI_2D"].Efficiency; eff > 0.3 {
		t.Errorf("Clang JACOBI_2D efficiency %v should reflect the paper's slowdown", eff)
	}
}

func TestClangModeRequest(t *testing.T) {
	loops := allLoops(t)
	vla := survey(Clang16, loops, VLA)
	vls := survey(Clang16, loops, VLS)
	for name, d := range vla.PerKernel {
		if d.Vectorized && d.Mode != VLA {
			t.Errorf("%s: requested VLA, got %v", name, d.Mode)
		}
	}
	for name, d := range vls.PerKernel {
		if d.Vectorized && d.Mode != VLS {
			t.Errorf("%s: requested VLS, got %v", name, d.Mode)
		}
	}
	// Mode must not change what gets vectorised.
	if vla.Vectorized != vls.Vectorized {
		t.Errorf("VLA/VLS changed vectorisation counts: %d vs %d",
			vla.Vectorized, vls.Vectorized)
	}
}

func TestGCCx86MoreCapableThanRVVFork(t *testing.T) {
	loops := allLoops(t)
	riscv := survey(GCCXuanTie, loops, VLS)
	x86 := survey(GCCx86, loops, VLS)
	if x86.Vectorized <= riscv.Vectorized {
		t.Errorf("x86 GCC vectorised %d <= RVV fork %d; the mature backend must do better",
			x86.Vectorized, riscv.Vectorized)
	}
	if x86.Vectorized >= survey(Clang16, loops, VLA).Vectorized {
		t.Errorf("x86 GCC should still trail Clang")
	}
	// x86 alias checks succeed: no runtime-scalar Jacobi.
	if x86.PerKernel["JACOBI_1D"].RuntimeScalar {
		t.Error("x86 GCC should not fall back to scalar on JACOBI_1D")
	}
}

func TestEfficiencyBounds(t *testing.T) {
	for _, c := range []Compiler{GCCXuanTie, Clang16, GCCx86} {
		cs := survey(c, allLoops(t), VLA)
		for name, d := range cs.PerKernel {
			if d.Efficiency <= 0 || d.Efficiency > 1 {
				t.Errorf("%v %s: efficiency %v out of (0,1]", c, name, d.Efficiency)
			}
			if !d.Vectorized && d.Mode != Scalar {
				t.Errorf("%v %s: not vectorised but mode %v", c, name, d.Mode)
			}
			if d.Reason == "" {
				t.Errorf("%v %s: empty reason", c, name)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	for _, c := range []Compiler{GCCXuanTie, Clang16, GCCx86} {
		if c.String() == "" {
			t.Error("empty compiler name")
		}
	}
	for _, m := range []Mode{Scalar, VLS, VLA} {
		if m.String() == "" {
			t.Error("empty mode name")
		}
	}
}

func vectorizedNames(cs census) []string {
	var out []string
	for name, d := range cs.PerKernel {
		if d.Vectorized {
			out = append(out, name)
		}
	}
	return out
}

func notVectorizedNames(cs census) []string {
	var out []string
	for name, d := range cs.PerKernel {
		if !d.Vectorized {
			out = append(out, name)
		}
	}
	return out
}

func runtimeScalarNames(cs census) []string {
	var out []string
	for name, d := range cs.PerKernel {
		if d.RuntimeScalar {
			out = append(out, name)
		}
	}
	return out
}
