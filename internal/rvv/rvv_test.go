package rvv

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const (
	dstAddr  = 0x1000
	src1Addr = 0x8000
	src2Addr = 0x10000
	outAddr  = 0x18000
	memSize  = 0x20000
)

// runKernel generates, assembles and executes a kernel, returning the
// dst array (or the single out value for KDot) alongside the VM stats.
func runKernel(t *testing.T, k GenKernel, cfg GenConfig, n int, alpha float64,
	src1, src2, dst0 []float64) ([]float64, Stats) {
	t.Helper()
	src, p, err := Generate(k, cfg)
	if err != nil {
		t.Fatalf("Generate(%v,%+v): %v\n%s", k, cfg, err, src)
	}
	vlen := cfg.VLEN
	if vlen == 0 {
		vlen = 128
	}
	vm, err := NewVM(cfg.Dialect, vlen, memSize)
	if err != nil {
		t.Fatal(err)
	}
	sz := cfg.SEW / 8
	if err := vm.WriteFloats(src1Addr, src1, sz); err != nil {
		t.Fatal(err)
	}
	if src2 != nil {
		if err := vm.WriteFloats(src2Addr, src2, sz); err != nil {
			t.Fatal(err)
		}
	}
	if dst0 != nil {
		if err := vm.WriteFloats(dstAddr, dst0, sz); err != nil {
			t.Fatal(err)
		}
	}
	vm.X[10] = int64(n) // a0
	vm.X[11] = dstAddr  // a1
	vm.X[12] = src1Addr // a2
	vm.X[13] = src2Addr // a3
	vm.X[14] = outAddr  // a4
	vm.F[10] = alpha    // fa0
	if err := vm.Run(p, 10_000_000); err != nil {
		t.Fatalf("run %v/%+v: %v\n%s", k, cfg, err, src)
	}
	if k == KDot {
		out, err := vm.ReadFloats(outAddr, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		return out, vm.Stats
	}
	out, err := vm.ReadFloats(dstAddr, n, sz)
	if err != nil {
		t.Fatal(err)
	}
	return out, vm.Stats
}

// reference computes the expected result in Go at the given precision.
func reference(k GenKernel, n int, alpha float64, src1, src2, dst0 []float64, sew int) []float64 {
	round := func(x float64) float64 {
		if sew == 32 {
			return float64(float32(x))
		}
		return x
	}
	out := make([]float64, n)
	switch k {
	case KCopy:
		copy(out, src1[:n])
	case KScale:
		for i := 0; i < n; i++ {
			out[i] = round(round(alpha) * round(src1[i]))
		}
	case KAdd:
		for i := 0; i < n; i++ {
			out[i] = round(round(src1[i]) + round(src2[i]))
		}
	case KTriad:
		for i := 0; i < n; i++ {
			out[i] = round(round(src1[i]) + round(round(alpha)*round(src2[i])))
		}
	case KDaxpy:
		for i := 0; i < n; i++ {
			out[i] = round(round(dst0[i]) + round(round(alpha)*round(src1[i])))
		}
	case KDot:
		s := 0.0
		for i := 0; i < n; i++ {
			s += round(src1[i]) * round(src2[i])
		}
		return []float64{s}
	}
	return out
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round((rng.Float64()*4-2)*16) / 16 // exactly representable
	}
	return out
}

func TestKernelsAllModesAllDialects(t *testing.T) {
	kernels := []GenKernel{KCopy, KScale, KAdd, KTriad, KDaxpy, KDot}
	modes := []GenMode{ModeScalar, ModeVLS, ModeVLA}
	dialects := []Dialect{V071, V10}
	sews := []int{32, 64}
	ns := []int{1, 3, 4, 5, 17, 64, 100}

	for _, k := range kernels {
		for _, mode := range modes {
			for _, d := range dialects {
				for _, sew := range sews {
					for _, n := range ns {
						cfg := GenConfig{Dialect: d, SEW: sew, Mode: mode, VLEN: 128}
						src1 := randVec(n, 1)
						src2 := randVec(n, 2)
						dst0 := randVec(n, 3)
						alpha := 1.5
						got, _ := runKernel(t, k, cfg, n, alpha, src1, src2, dst0)
						want := reference(k, n, alpha, src1, src2, dst0, sew)
						tol := 1e-12
						if sew == 32 {
							tol = 1e-5
						}
						if k == KDot {
							if math.Abs(got[0]-want[0]) > tol*(1+math.Abs(want[0])) {
								t.Errorf("%v/%v/%v/e%d n=%d: dot = %v, want %v",
									k, mode, d, sew, n, got[0], want[0])
							}
							continue
						}
						for i := range want {
							if math.Abs(got[i]-want[i]) > tol {
								t.Errorf("%v/%v/%v/e%d n=%d: dst[%d] = %v, want %v",
									k, mode, d, sew, n, i, got[i], want[i])
								break
							}
						}
					}
				}
			}
		}
	}
}

func TestVLAIssuesMoreVsetvlis(t *testing.T) {
	// VLA renegotiates VL every strip; VLS sets it once per strip too,
	// but the observable difference the paper discusses is the dynamic
	// overhead: for n >> VL, VLA and VLS execute similar strip counts,
	// but VLS's remainder runs scalar. Check the structural signatures:
	// VLA handles a non-multiple n with zero scalar float loads, VLS
	// needs the scalar tail.
	n := 103 // not a multiple of 4 lanes
	src1, src2 := randVec(n, 4), randVec(n, 5)
	_, vlaStats := runKernel(t, KAdd,
		GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLA, VLEN: 128}, n, 0, src1, src2, nil)
	_, vlsStats := runKernel(t, KAdd,
		GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLS, VLEN: 128}, n, 0, src1, src2, nil)
	if vlaStats.Vsetvlis < 26 {
		t.Errorf("VLA executed %d vsetvlis, want >= ceil(103/4)", vlaStats.Vsetvlis)
	}
	// VLS: tail of 3 elements runs scalar => more scalar instructions.
	if vlsStats.ScalarInsts <= vlaStats.ScalarInsts {
		t.Errorf("VLS scalar insts %d should exceed VLA %d (scalar tail loop)",
			vlsStats.ScalarInsts, vlaStats.ScalarInsts)
	}
}

func TestDialectMismatchRejected(t *testing.T) {
	_, p, err := Generate(KAdd, GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLA})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := NewVM(V071, 128, memSize)
	if err := vm.Run(p, 1000); err == nil {
		t.Error("v1.0 program ran on a v0.7.1 VM — the C920 incompatibility must be enforced")
	}
}

// An opcode outside the ISA is rejected before the VM retires it: the
// VM's per-opcode counters have no slot for it.
func TestUnknownOpcodeRejected(t *testing.T) {
	vm, _ := NewVM(V10, 128, memSize)
	p := &Program{Dialect: V10, Insts: []Inst{{Op: numOpcodes}}}
	if err := vm.Run(p, 10); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("Run = %v, want an unknown-opcode error", err)
	}
}

func TestV10OnlyInstructionsRejectedInV071(t *testing.T) {
	cases := []string{
		"\tvle32.v v1, (a1)\n\thalt",
		"\tvsetvli t0, a0, e32, m1, ta, ma\n\thalt",
		"\tvsetvli t0, a0, e32, mf2\n\thalt",
		"\tvl1r.v v1, (a1)\n\thalt",
		"\tvmv1r.v v1, v2\n\thalt",
	}
	for _, src := range cases {
		if _, err := Assemble(src, V071); err == nil {
			t.Errorf("v0.7.1 accepted v1.0-only construct:\n%s", src)
		}
		if _, err := Assemble(src, V10); err != nil {
			t.Errorf("v1.0 rejected its own construct: %v\n%s", err, src)
		}
	}
}

func TestV071OnlyInstructionsRejectedInV10(t *testing.T) {
	cases := []string{
		"\tvlw.v v1, (a1)\n\thalt",
		"\tvsw.v v1, (a1)\n\thalt",
		"\tvle.v v1, (a1)\n\thalt",
	}
	for _, src := range cases {
		if _, err := Assemble(src, V10); err == nil {
			t.Errorf("v1.0 accepted removed v0.7.1 mnemonic:\n%s", src)
		}
		if _, err := Assemble(src, V071); err != nil {
			t.Errorf("v0.7.1 rejected its own mnemonic: %v\n%s", err, src)
		}
	}
}

func TestFormatAssembleRoundTrip(t *testing.T) {
	for _, k := range []GenKernel{KCopy, KTriad, KDot} {
		for _, d := range []Dialect{V071, V10} {
			for _, mode := range []GenMode{ModeScalar, ModeVLS, ModeVLA} {
				cfg := GenConfig{Dialect: d, SEW: 64, Mode: mode, VLEN: 128}
				_, p, err := Generate(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				text := p.Format()
				p2, err := Assemble(text, d)
				if err != nil {
					t.Fatalf("round-trip assemble failed: %v\n%s", err, text)
				}
				if len(p2.Insts) != len(p.Insts) {
					t.Fatalf("round trip changed length %d -> %d", len(p.Insts), len(p2.Insts))
				}
				for i := range p.Insts {
					if p.Insts[i].Op != p2.Insts[i].Op || p.Insts[i].Target != p2.Insts[i].Target {
						t.Fatalf("inst %d differs after round trip", i)
					}
				}
			}
		}
	}
}

func TestTailPolicyObservable(t *testing.T) {
	// v1.0 tail-agnostic fills tail lanes with ones; v0.7.1 preserves
	// them. Load 2 elements with vl=2 into a register pre-filled via a
	// full-width load, and inspect lane 3.
	setup := func(d Dialect, src string) *VM {
		vm, _ := NewVM(d, 128, memSize)
		vm.WriteFloats(src1Addr, []float64{1, 2, 3, 4}, 4)
		vm.WriteFloats(src2Addr, []float64{9, 9, 9, 9}, 4)
		vm.X[10] = 2 // a0 = short length
		vm.X[12] = src1Addr
		vm.X[13] = src2Addr
		p, err := Assemble(src, d)
		if err != nil {
			t.Fatalf("%v", err)
		}
		if err := vm.Run(p, 1000); err != nil {
			t.Fatalf("%v", err)
		}
		return vm
	}
	// First fill v1 fully (vl=4), then reload only 2 lanes.
	v10src := `
	li t0, 4
	vsetvli t1, t0, e32, m1, tu, ma
	vle32.v v1, (a3)
	vsetvli t1, a0, e32, m1, ta, ma
	vle32.v v1, (a2)
	halt`
	vm10 := setup(V10, v10src)
	lane3 := vm10.V[1][12:16]
	if lane3[0] != 0xFF || lane3[3] != 0xFF {
		t.Errorf("v1.0 ta: tail lane should be filled with ones, got % x", lane3)
	}

	v071src := `
	li t0, 4
	vsetvli t1, t0, e32, m1
	vlw.v v1, (a3)
	vsetvli t1, a0, e32, m1
	vlw.v v1, (a2)
	halt`
	vm071 := setup(V071, v071src)
	got, _ := vm071.ReadFloats(0, 0, 4)
	_ = got
	// lane 2 should still hold 9.0 (undisturbed).
	f := math.Float32frombits(uint32(vm071.V[1][8]) | uint32(vm071.V[1][9])<<8 |
		uint32(vm071.V[1][10])<<16 | uint32(vm071.V[1][11])<<24)
	if f != 9 {
		t.Errorf("v0.7.1 tail lane = %v, want undisturbed 9", f)
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"\tnope x1, x2",
		"\tadd x1, x2",              // operand count
		"\tli q1, 5",                // bad register
		"\tbnez x1, missing",        // undefined label
		"\tvsetvli t0, a0, e33, m1", // bad SEW
		"\tvsetvli t0, a0, e32, m3", // bad LMUL
		"\tflw f1, (a1",             // malformed memory operand
		"dup: halt\ndup: halt",      // duplicate label
	}
	for _, src := range bad {
		if _, err := Assemble(src, V10); err == nil {
			t.Errorf("assembler accepted %q", src)
		}
	}
}

func TestVMGuards(t *testing.T) {
	if _, err := NewVM(V10, 100, 1024); err == nil {
		t.Error("VLEN not multiple of 64 accepted")
	}
	if _, err := NewVM(V10, 128, 0); err == nil {
		t.Error("zero memory accepted")
	}
	// Out-of-bounds access errors rather than panics.
	vm, _ := NewVM(V10, 128, 64)
	p, err := Assemble("\tli a1, 1000\n\tfld f1, 0(a1)\n\thalt", V10)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(p, 100); err == nil {
		t.Error("out-of-bounds load did not error")
	}
	// Infinite loops are caught by the step budget.
	vm2, _ := NewVM(V10, 128, 64)
	p2, _ := Assemble("loop:\n\tj loop", V10)
	if err := vm2.Run(p2, 1000); err == nil {
		t.Error("infinite loop not caught")
	}
}

func TestVLSemantics(t *testing.T) {
	// vl = min(avl, VLMAX); VLMAX = VLEN/SEW * LMUL.
	vm, _ := NewVM(V10, 128, 1024)
	p, _ := Assemble("\tvsetvli t0, a0, e32, m1, ta, ma\n\thalt", V10)
	vm.X[10] = 100
	vm.Run(p, 10)
	if vm.X[5] != 4 {
		t.Errorf("vl = %d, want VLMAX=4 for e32 m1 VLEN=128", vm.X[5])
	}
	vm2, _ := NewVM(V10, 128, 1024)
	p2, _ := Assemble("\tvsetvli t0, a0, e64, m2, ta, ma\n\thalt", V10)
	vm2.X[10] = 3
	vm2.Run(p2, 10)
	if vm2.X[5] != 3 {
		t.Errorf("vl = %d, want avl=3 when below VLMAX=4 (e64 m2)", vm2.X[5])
	}
	// Fractional LMUL halves VLMAX (v1.0 only).
	vm3, _ := NewVM(V10, 128, 1024)
	p3, _ := Assemble("\tvsetvli t0, a0, e32, mf2, ta, ma\n\thalt", V10)
	vm3.X[10] = 100
	vm3.Run(p3, 10)
	if vm3.X[5] != 2 {
		t.Errorf("vl = %d, want 2 for mf2", vm3.X[5])
	}
}

func TestLMUL2Grouping(t *testing.T) {
	// With m2 and e64, 4 lanes span two registers: v2 and v3.
	vm, _ := NewVM(V10, 128, 4096)
	vm.WriteFloats(0, []float64{1, 2, 3, 4}, 8)
	src := `
	li a0, 4
	vsetvli t0, a0, e64, m2, tu, ma
	li a1, 0
	vle64.v v2, (a1)
	li a2, 512
	vse64.v v2, (a2)
	halt`
	p, err := Assemble(src, V10)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(p, 100); err != nil {
		t.Fatal(err)
	}
	got, _ := vm.ReadFloats(512, 4, 8)
	for i, want := range []float64{1, 2, 3, 4} {
		if got[i] != want {
			t.Errorf("lane %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestGenerateRandomizedEquivalence(t *testing.T) {
	// Property: VLS and VLA produce identical results to the scalar
	// code for random inputs and sizes.
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%97 + 1
		src1, src2 := randVec(n, seed), randVec(n, seed+1)
		var results [3][]float64
		for i, mode := range []GenMode{ModeScalar, ModeVLS, ModeVLA} {
			cfg := GenConfig{Dialect: V10, SEW: 64, Mode: mode, VLEN: 128}
			_, p, err := Generate(KTriad, cfg)
			if err != nil {
				return false
			}
			vm, _ := NewVM(V10, 128, memSize)
			vm.WriteFloats(src1Addr, src1, 8)
			vm.WriteFloats(src2Addr, src2, 8)
			vm.X[10], vm.X[11], vm.X[12], vm.X[13] = int64(n), dstAddr, src1Addr, src2Addr
			vm.F[10] = 0.75
			if err := vm.Run(p, 1_000_000); err != nil {
				return false
			}
			out, err := vm.ReadFloats(dstAddr, n, 8)
			if err != nil {
				return false
			}
			results[i] = out
		}
		for i := 0; i < n; i++ {
			if results[0][i] != results[1][i] || results[0][i] != results[2][i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGeneratedTextMentionsDialectMnemonics(t *testing.T) {
	src071, _, err := Generate(KTriad, GenConfig{Dialect: V071, SEW: 32, Mode: ModeVLS, VLEN: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src071, "vlw.v") || strings.Contains(src071, "vle32.v") {
		t.Errorf("v0.7.1 VLS code should use vlw.v:\n%s", src071)
	}
	src10, _, err := Generate(KTriad, GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLA})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src10, "vle32.v") || !strings.Contains(src10, "ta, ma") {
		t.Errorf("v1.0 VLA code should use vle32.v with ta,ma:\n%s", src10)
	}
}
