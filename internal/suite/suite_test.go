package suite

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/prec"
	"repro/internal/team"
)

// testSize keeps kernel instances small enough for fast tests while
// still exercising multi-chunk parallel partitions. DefaultN means
// different things per kernel (elements for 1D kernels, matrix order or
// grid side for 2D/3D ones), so the cap is chosen from its magnitude:
// O(n^3) matrix kernels get an order ~48, everything else ~1600
// elements — enough for every 4-thread partition to span several
// chunks, small enough that the O(n^2) polybench kernels (FDTD_2D,
// ATAX, MVT, ...) stay in the milliseconds.
func testSize(s kernels.Spec) int {
	if s.DefaultN <= 1024 {
		return 48
	}
	return 1600
}

// expectedCount is the number of kernels per class the paper states.
var expectedCount = map[kernels.Class]int{
	kernels.Algorithm: 6, kernels.Apps: 13, kernels.Basic: 16,
	kernels.Lcals: 11, kernels.Polybench: 13, kernels.Stream: 5,
}

// validate checks the registry matches the paper's structure: 64
// kernels, six classes with the documented counts, no duplicate names,
// and every Spec internally consistent.
func validate() error {
	specs := All()
	if len(specs) != 64 {
		return fmt.Errorf("suite: %d kernels, want 64", len(specs))
	}
	seen := make(map[string]bool)
	counts := make(map[kernels.Class]int)
	for i := range specs {
		s := &specs[i]
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("suite: duplicate kernel %q", s.Name)
		}
		seen[s.Name] = true
		counts[s.Class]++
	}
	for c, want := range expectedCount {
		if counts[c] != want {
			return fmt.Errorf("suite: class %v has %d kernels, want %d", c, counts[c], want)
		}
	}
	return nil
}

func TestRegistryStructure(t *testing.T) {
	t.Parallel()
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperKernelInventory(t *testing.T) {
	t.Parallel()
	// Spot-check the kernels the paper names explicitly.
	mustHave := []string{
		"MEMSET", "MEMCPY", "SORT", // "memory copies, the sorting of data"
		"FIR", "DIFFUSION3DPA", "CONVECTION3DPA", "HALO_PACKING", // apps description
		"DAXPY", "PI_REDUCE", "REDUCE3_INT", "MAT_MAT_SHARED", // basic description
		"TRIDIAG_ELIM", "FIRST_DIFF", "FIRST_MIN", // lcals description
		"2MM", "3MM", "MVT", "JACOBI_2D", "ADI", "FLOYD_WARSHALL", "HEAT_3D", // polybench
		"ADD", "COPY", "DOT", "MUL", "TRIAD", // stream
	}
	for _, name := range mustHave {
		if _, err := ByName(name); err != nil {
			t.Errorf("paper-named kernel missing: %v", err)
		}
	}
}

func TestByClassCounts(t *testing.T) {
	t.Parallel()
	for c, want := range expectedCount {
		if got := len(ByClass(c)); got != want {
			t.Errorf("class %v: %d kernels, want %d", c, got, want)
		}
	}
	if len(Names()) != 64 {
		t.Error("Names() should list 64 kernels")
	}
}

func TestByNameUnknown(t *testing.T) {
	t.Parallel()
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestSequentialParallelEquivalence is the core correctness property:
// running any kernel on a multi-thread team must produce the same
// checksum as running it sequentially (modulo FP reassociation, which
// the deterministic partials keep small).
func TestSequentialParallelEquivalence(t *testing.T) {
	t.Parallel()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tm := team.New(4)
			defer tm.Close()
			for _, p := range prec.Both {
				seq := s.Build(p, testSize(s))
				seq.Run(team.Sequential{})
				want := seq.Checksum()

				par := s.Build(p, testSize(s))
				par.Run(tm)
				got := par.Checksum()

				tol := relTol(p) * (1 + math.Abs(want))
				if math.Abs(got-want) > tol {
					t.Errorf("%s %v: parallel checksum %g != sequential %g",
						s.Name, p, got, want)
				}
			}
		})
	}
}

func relTol(p prec.Precision) float64 {
	if p == prec.F32 {
		return 2e-4
	}
	return 1e-9
}

// TestRepeatability: running the same instance twice with the same
// runner must give a stable checksum for idempotent kernels, and a
// deterministic one for iterating kernels (build two instances).
func TestRepeatability(t *testing.T) {
	t.Parallel()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			a := s.Build(prec.F64, testSize(s))
			b := s.Build(prec.F64, testSize(s))
			a.Run(team.Sequential{})
			b.Run(team.Sequential{})
			if a.Checksum() != b.Checksum() {
				t.Errorf("%s: two fresh instances disagree: %g vs %g",
					s.Name, a.Checksum(), b.Checksum())
			}
		})
	}
}

// TestPrecisionsAgreeLoosely: FP32 and FP64 run the same algorithm, so
// checksums must agree to single-precision accuracy. This catches
// builders that wire up different code paths per precision.
func TestPrecisionsAgreeLoosely(t *testing.T) {
	t.Parallel()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			f32 := s.Build(prec.F32, testSize(s))
			f64 := s.Build(prec.F64, testSize(s))
			f32.Run(team.Sequential{})
			f64.Run(team.Sequential{})
			a, b := f32.Checksum(), f64.Checksum()
			denom := 1 + math.Abs(b)
			if math.Abs(a-b)/denom > 2e-2 {
				t.Errorf("%s: FP32 checksum %g far from FP64 %g", s.Name, a, b)
			}
		})
	}
}

func TestChecksumsNonTrivial(t *testing.T) {
	t.Parallel()
	// A zero or NaN checksum usually means the kernel never ran or
	// wrote nothing.
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			inst := s.Build(prec.F64, testSize(s))
			inst.Run(team.Sequential{})
			cs := inst.Checksum()
			if math.IsNaN(cs) || math.IsInf(cs, 0) {
				t.Errorf("%s: checksum %v", s.Name, cs)
			}
			if cs == 0 {
				t.Errorf("%s: checksum is exactly zero — did the kernel run?", s.Name)
			}
		})
	}
}

func TestStreamClassSignatures(t *testing.T) {
	t.Parallel()
	// STREAM TRIAD: 2 flops, 2 loads + 1 store per iteration.
	s, err := ByName("TRIAD")
	if err != nil {
		t.Fatal(err)
	}
	if s.Loop.FlopsPerIter != 2 {
		t.Errorf("TRIAD flops/iter = %v", s.Loop.FlopsPerIter)
	}
	if s.Loop.LoadsPerIter() != 2 || s.Loop.StoresPerIter() != 1 {
		t.Errorf("TRIAD loads/stores = %v/%v", s.Loop.LoadsPerIter(), s.Loop.StoresPerIter())
	}
}

func TestVectorisationRelevantFeatures(t *testing.T) {
	t.Parallel()
	// The kernels the paper discusses by name must carry the features
	// that drive the Figure 2/3 compiler behaviour.
	cases := map[string]ir.Feature{
		"FLOYD_WARSHALL": ir.LoopCarried,    // "GCC is unable to auto-vectorise Warshall"
		"JACOBI_1D":      ir.PotentialAlias, // vectorised but scalar path at runtime
		"JACOBI_2D":      ir.PotentialAlias,
		"GEN_LIN_RECUR":  ir.LoopCarried,
		"SORT":           ir.SortBody,
		"SCAN":           ir.Scan,
		"PLANCKIAN":      ir.FunctionCall,
		"DAXPY_ATOMIC":   ir.Atomic,
		"FIRST_MIN":      ir.MinMaxLoc,
		"GEMM":           ir.OuterLoopReuse,
		"2MM":            ir.OuterLoopReuse,
		"3MM":            ir.OuterLoopReuse,
	}
	for name, want := range cases {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Loop.Features.Has(want) {
			t.Errorf("%s: missing feature %v (has %v)", name, want, s.Loop.Features)
		}
	}
	// HEAT_3D: GCC fails on deep stencil nests — encoded as Nest>=3 +
	// Stencil, not as a feature bit.
	h, _ := ByName("HEAT_3D")
	if h.Loop.Nest < 3 || h.Loop.DominantPattern() != ir.Stencil {
		t.Error("HEAT_3D should be a nest>=3 stencil")
	}
}

func TestSeqOnlyKernels(t *testing.T) {
	t.Parallel()
	s, err := ByName("GEN_LIN_RECUR")
	if err != nil {
		t.Fatal(err)
	}
	if !s.SeqOnly {
		t.Error("GEN_LIN_RECUR must be marked SeqOnly (loop-carried recurrence)")
	}
	// And it must be the only one — everything else parallelises.
	count := 0
	for _, sp := range All() {
		if sp.SeqOnly {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d SeqOnly kernels, want 1", count)
	}
}

func TestKernelAlgorithms(t *testing.T) {
	t.Parallel()
	// Verify a few kernels against closed-form or known results.
	tm := team.New(3)
	defer tm.Close()

	// PI_REDUCE converges to pi.
	s, _ := ByName("PI_REDUCE")
	inst := s.Build(prec.F64, 1_000_00)
	inst.Run(tm)
	if math.Abs(inst.Checksum()-math.Pi) > 1e-6 {
		t.Errorf("PI_REDUCE = %v, want pi", inst.Checksum())
	}

	// PI_ATOMIC converges too (atomic accumulation order varies, FP64).
	s, _ = ByName("PI_ATOMIC")
	inst = s.Build(prec.F64, 1_000_00)
	inst.Run(tm)
	if math.Abs(inst.Checksum()-math.Pi) > 1e-6 {
		t.Errorf("PI_ATOMIC = %v, want pi", inst.Checksum())
	}

	// TRAP_INT integrates x^2/(1+x^2) on [0,1] = 1 - pi/4.
	s, _ = ByName("TRAP_INT")
	inst = s.Build(prec.F64, 1_000_00)
	inst.Run(tm)
	want := 1 - math.Pi/4
	if math.Abs(inst.Checksum()-want) > 1e-6 {
		t.Errorf("TRAP_INT = %v, want %v", inst.Checksum(), want)
	}
}

func TestSortKernelsActuallySort(t *testing.T) {
	t.Parallel()
	// SORT's checksum weights by position, so a sorted array has a
	// different (deterministic) checksum than the unsorted input; more
	// directly, sorting twice is idempotent.
	s, _ := ByName("SORT")
	tm := team.New(4)
	defer tm.Close()
	a := s.Build(prec.F64, 2000)
	a.Run(tm)
	first := a.Checksum()
	a.Run(tm) // sorts the same source data again
	if a.Checksum() != first {
		t.Error("SORT is not deterministic across reps")
	}
	b := s.Build(prec.F64, 2000)
	b.Run(team.Sequential{})
	if b.Checksum() != first {
		t.Error("parallel merge sort disagrees with sequential sort")
	}
}
