package kernels

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/team"
)

func TestClassStrings(t *testing.T) {
	for _, c := range Classes {
		if s := c.String(); s == "" || s[0] == 'C' && s != "Class" && len(s) > 6 && s[:6] == "Class(" {
			t.Errorf("class %d has no name", int(c))
		}
	}
	if len(Classes) != 6 {
		t.Error("the paper defines six classes")
	}
}

func TestChecksumDetectsReordering(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{2, 1, 3, 4, 5, 6, 7, 8} // swapped first two
	if Checksum(a) == Checksum(b) {
		t.Error("checksum must detect element reordering")
	}
}

func TestChecksumPrecisionAgreement(t *testing.T) {
	f := func(raw []float32) bool {
		xs32 := make([]float32, len(raw))
		xs64 := make([]float64, len(raw))
		for i, v := range raw {
			// Bound the values so float32 rounding stays small.
			x := float64(v)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0.5
			}
			x = math.Mod(x, 4)
			xs32[i] = float32(x)
			xs64[i] = float64(float32(x))
		}
		c32 := Checksum(xs32)
		c64 := Checksum(xs64)
		return math.Abs(c32-c64) <= 1e-4*(1+math.Abs(c64))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInitHelpers(t *testing.T) {
	xs := make([]float64, 100)
	InitSeq(xs)
	for i, x := range xs {
		if x < 0.1 || x >= 1.1 {
			t.Fatalf("InitSeq[%d] = %v outside [0.1,1.1)", i, x)
		}
	}
	InitSigned(xs)
	pos, neg := 0, 0
	for _, x := range xs {
		if x > 0 {
			pos++
		} else if x < 0 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Error("InitSigned should produce both signs")
	}
	InitConst(xs, 7)
	for _, x := range xs {
		if x != 7 {
			t.Fatal("InitConst failed")
		}
	}
	InitPseudo(xs, 42)
	ys := make([]float64, 100)
	InitPseudo(ys, 42)
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatal("InitPseudo not deterministic")
		}
		if xs[i] < 0 || xs[i] >= 1 {
			t.Fatalf("InitPseudo out of range: %v", xs[i])
		}
	}
	InitPseudo(ys, 43)
	same := true
	for i := range xs {
		if xs[i] != ys[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical data")
	}
}

func TestMathHelpers(t *testing.T) {
	if Sqrt(float32(4)) != 2 || Sqrt(float64(9)) != 3 {
		t.Error("Sqrt wrong")
	}
	if Fabs(float32(-2)) != 2 || Fabs(float64(3)) != 3 {
		t.Error("Fabs wrong")
	}
	if math.Abs(float64(Exp(float64(0)))-1) > 1e-15 {
		t.Error("Exp wrong")
	}
}

func TestAtomicF64ConcurrentAdds(t *testing.T) {
	a := NewAtomicF64(1)
	const (
		workers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				a.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := a.Load(0); got != workers*perW {
		t.Errorf("atomic sum = %v, want %v", got, workers*perW)
	}
}

func TestAtomicF32ConcurrentAdds(t *testing.T) {
	a := NewAtomicF32(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a.Add(w, 0.5)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if got := a.Load(i); got != 1000 {
			t.Errorf("slot %d = %v, want 1000", i, got)
		}
	}
	fs := a.Floats()
	if len(fs) != 4 || fs[0] != 1000 {
		t.Error("Floats() wrong")
	}
}

func TestSpecBuildDispatch(t *testing.T) {
	spec := Spec{
		Name: "T", Class: Stream,
		Loop: ir.Loop{Kernel: "T", Nest: 1, FlopsPerIter: 1,
			Accesses: []ir.Access{{Array: "x", Kind: ir.Load, Pattern: ir.Unit, PerIter: 1}}},
		DefaultN: 10, Reps: 1, Regions: 1,
		Iters:          func(n int) float64 { return float64(n) },
		FootprintElems: func(n int) float64 { return float64(n) },
		Build32: func(n int) Instance {
			return &Funcs{RunFn: func(team.Runner) {}, ChecksumFn: func() float64 { return 32 }}
		},
		Build64: func(n int) Instance {
			return &Funcs{RunFn: func(team.Runner) {}, ChecksumFn: func() float64 { return 64 }}
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Build(0, 10).Checksum() != 32 { // prec.F32 == 0
		t.Error("Build dispatched wrong precision")
	}
	if spec.Build(1, 10).Checksum() != 64 {
		t.Error("Build dispatched wrong precision")
	}
}

func TestSpecValidateCatchesSerialFrac(t *testing.T) {
	spec := Spec{
		Name: "T", Class: Stream,
		Loop: ir.Loop{Kernel: "T", Nest: 1, FlopsPerIter: 1,
			Accesses: []ir.Access{{Array: "x", Kind: ir.Load, Pattern: ir.Unit, PerIter: 1}}},
		DefaultN: 10, Reps: 1, Regions: 1, SerialFrac: 1.5,
		Iters:          func(n int) float64 { return float64(n) },
		FootprintElems: func(n int) float64 { return float64(n) },
		Build32:        func(n int) Instance { return nil },
		Build64:        func(n int) Instance { return nil },
	}
	if err := spec.Validate(); err == nil {
		t.Error("serial fraction 1.5 accepted")
	}
}
