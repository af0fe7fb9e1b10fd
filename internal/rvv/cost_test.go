package rvv

import "testing"

// A cycle-cost model over executed instruction streams, kept as the
// test oracle behind the performance model: it assigns each retired
// instruction a C920-like cycle cost and totals a program's
// execution. This grounds the performance model's VLS-vs-VLA constant
// (perfmodel's Calibration.VLAFactor) in something executable: the same
// kernel generated both ways runs on the VM, and the dynamic
// instruction streams are costed to show where VLA's overhead comes
// from (per-strip vsetvli plus weaker unrolling).

// CostModel assigns cycle costs per instruction category.
type CostModel struct {
	// Scalar ALU / branch cost.
	ScalarCycles float64
	// Scalar load/store cost (L1 hit).
	ScalarMemCycles float64
	// Vsetvli cost: vtype/vl renegotiation stalls the vector pipe.
	VsetvliCycles float64
	// Vector arithmetic cost per instruction at LMUL=1 (one pass
	// through the 128-bit pipe).
	VectorALUCycles float64
	// Vector load/store cost (L1 hit, full width).
	VectorMemCycles float64
}

// vectorMemOps lists vector load/store opcodes.
var vectorMemOps = map[Opcode]bool{
	OpVLE32: true, OpVLE64: true, OpVSE32: true, OpVSE64: true,
	OpVLW: true, OpVSW: true, OpVLE: true, OpVSE: true,
	OpVL1R: true, OpVS1R: true,
}

// scalarMemOps lists scalar float load/store opcodes.
var scalarMemOps = map[Opcode]bool{
	OpFLW: true, OpFLD: true, OpFSW: true, OpFSD: true,
}

// Cycles totals the cost of the dynamic instruction mix a VM retired,
// summed in opcode order so the total is the same on every run.
func (c CostModel) Cycles(vm *VM) float64 {
	total := 0.0
	for i, n := range vm.OpCounts {
		op, fn := Opcode(i), float64(n)
		switch {
		case op == OpVSETVLI:
			total += fn * c.VsetvliCycles
		case vectorMemOps[op]:
			total += fn * c.VectorMemCycles
		case scalarMemOps[op]:
			total += fn * c.ScalarMemCycles
		case op >= OpVADDVV: // remaining vector arithmetic opcodes
			total += fn * c.VectorALUCycles
		default:
			total += fn * c.ScalarCycles
		}
	}
	return total
}

// DefaultC920Cost returns costs approximating the XuanTie C920: dual
// scalar issue folded into ~1-cycle scalar ops, 2-cycle L1 loads, a
// 3-cycle vsetvli bubble, single 128-bit vector pipe.
func DefaultC920Cost() CostModel {
	return CostModel{
		ScalarCycles:    1,
		ScalarMemCycles: 2,
		VsetvliCycles:   3,
		VectorALUCycles: 2,
		VectorMemCycles: 3,
	}
}

// MeasureKernelCycles generates the kernel in the given mode, executes
// it over n elements on a fresh VM, and returns the costed cycle total.
// Memory layout and inputs match the test harness conventions.
func MeasureKernelCycles(k GenKernel, cfg GenConfig, n int, cost CostModel) (float64, *VM, error) {
	_, prog, err := Generate(k, cfg)
	if err != nil {
		return 0, nil, err
	}
	vlen := cfg.VLEN
	if vlen == 0 {
		vlen = 128
	}
	const (
		dstAddr  = 0x1000
		src1Addr = 0x40000
		src2Addr = 0x80000
		outAddr  = 0xC0000
		memSize  = 0xD0000
	)
	vm, err := NewVM(cfg.Dialect, vlen, memSize)
	if err != nil {
		return 0, nil, err
	}
	esz := cfg.SEW / 8
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%9) * 0.25
	}
	if err := vm.WriteFloats(src1Addr, xs, esz); err != nil {
		return 0, nil, err
	}
	if err := vm.WriteFloats(src2Addr, xs, esz); err != nil {
		return 0, nil, err
	}
	vm.X[10], vm.X[11], vm.X[12], vm.X[13], vm.X[14] =
		int64(n), dstAddr, src1Addr, src2Addr, outAddr
	vm.F[10] = 1.5
	if err := vm.Run(prog, 100_000_000); err != nil {
		return 0, nil, err
	}
	return cost.Cycles(vm), vm, nil
}

func TestVLSOutperformsVLAOnCycles(t *testing.T) {
	// The executable grounding of the paper's "VLS tends to outperform
	// VLA" and of the perfmodel's VLAFactor: for sizes divisible by the
	// vector length, VLA pays the per-strip vsetvli without gaining
	// anything, so its costed cycles exceed VLS's.
	cost := DefaultC920Cost()
	for _, n := range []int{64, 256, 1024} {
		vls, _, err := MeasureKernelCycles(KTriad,
			GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLS, VLEN: 128}, n, cost)
		if err != nil {
			t.Fatal(err)
		}
		vla, _, err := MeasureKernelCycles(KTriad,
			GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLA, VLEN: 128}, n, cost)
		if err != nil {
			t.Fatal(err)
		}
		if vla <= vls {
			t.Errorf("n=%d: VLA cycles %v should exceed VLS %v", n, vla, vls)
		}
		ratio := vla / vls
		if ratio > 1.35 {
			t.Errorf("n=%d: VLA/VLS cycle ratio %.2f implausibly large", n, ratio)
		}
		// The perfmodel's VLAFactor (0.88 => ratio ~1.14) must sit
		// inside the measured band.
		if ratio < 1.01 {
			t.Errorf("n=%d: ratio %.3f too small to justify a VLA penalty", n, ratio)
		}
	}
}

func TestVectorBeatsScalarOnCycles(t *testing.T) {
	cost := DefaultC920Cost()
	scalar, _, err := MeasureKernelCycles(KTriad,
		GenConfig{Dialect: V071, SEW: 32, Mode: ModeScalar, VLEN: 128}, 1024, cost)
	if err != nil {
		t.Fatal(err)
	}
	vls, _, err := MeasureKernelCycles(KTriad,
		GenConfig{Dialect: V071, SEW: 32, Mode: ModeVLS, VLEN: 128}, 1024, cost)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := scalar / vls; speedup < 2 {
		t.Errorf("FP32 vector cycle speedup %.2f should be >= 2", speedup)
	}
	// FP64 gains less (2 lanes instead of 4).
	scalar64, _, err := MeasureKernelCycles(KTriad,
		GenConfig{Dialect: V071, SEW: 64, Mode: ModeScalar, VLEN: 128}, 1024, cost)
	if err != nil {
		t.Fatal(err)
	}
	vls64, _, err := MeasureKernelCycles(KTriad,
		GenConfig{Dialect: V071, SEW: 64, Mode: ModeVLS, VLEN: 128}, 1024, cost)
	if err != nil {
		t.Fatal(err)
	}
	if (scalar / vls) <= (scalar64 / vls64) {
		t.Error("FP32 vector speedup should exceed FP64 (half the lanes)")
	}
}

func TestVLAWinsOnAwkwardTails(t *testing.T) {
	// For n slightly above a multiple of VL, VLS runs a scalar tail
	// while VLA absorbs the remainder in one short strip; the VLA/VLS
	// gap must shrink (or flip) relative to the exact-multiple case.
	cost := DefaultC920Cost()
	ratioAt := func(n int) float64 {
		vls, _, err := MeasureKernelCycles(KTriad,
			GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLS, VLEN: 128}, n, cost)
		if err != nil {
			t.Fatal(err)
		}
		vla, _, err := MeasureKernelCycles(KTriad,
			GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLA, VLEN: 128}, n, cost)
		if err != nil {
			t.Fatal(err)
		}
		return vla / vls
	}
	exact := ratioAt(256)
	awkward := ratioAt(259) // 3-element scalar tail for VLS
	if awkward >= exact {
		t.Errorf("VLA/VLS ratio should improve with a tail: exact %.3f, awkward %.3f",
			exact, awkward)
	}
}

func TestOpCountsPopulated(t *testing.T) {
	_, vm, err := MeasureKernelCycles(KAdd,
		GenConfig{Dialect: V10, SEW: 32, Mode: ModeVLA, VLEN: 128}, 32, DefaultC920Cost())
	if err != nil {
		t.Fatal(err)
	}
	if vm.OpCounts[OpVSETVLI] == 0 {
		t.Error("vsetvli count missing")
	}
	if vm.OpCounts[OpVLE32] == 0 || vm.OpCounts[OpVSE32] == 0 {
		t.Error("vector memory op counts missing")
	}
	var total uint64
	for _, n := range vm.OpCounts {
		total += n
	}
	if total != vm.Stats.Steps {
		t.Errorf("opcode counts sum to %d, steps %d", total, vm.Stats.Steps)
	}
}

func TestCyclesPositiveAndAdditive(t *testing.T) {
	cost := DefaultC920Cost()
	c1, vm1, err := MeasureKernelCycles(KScale,
		GenConfig{Dialect: V071, SEW: 32, Mode: ModeVLS, VLEN: 128}, 128, cost)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Fatal("non-positive cycle count")
	}
	// Running the same program again on the same VM doubles the counts.
	_, prog, err := Generate(KScale, GenConfig{Dialect: V071, SEW: 32, Mode: ModeVLS, VLEN: 128})
	if err != nil {
		t.Fatal(err)
	}
	vm1.X[10], vm1.X[11], vm1.X[12] = 128, 0x1000, 0x40000
	if err := vm1.Run(prog, 1_000_000); err != nil {
		t.Fatal(err)
	}
	c2 := cost.Cycles(vm1)
	if c2 <= c1*1.5 {
		t.Errorf("second run should accumulate cycles: %v -> %v", c1, c2)
	}
}
