package rvv

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Stats counts dynamic execution events; the VLS-vs-VLA comparison in
// the paper reduces to instruction-stream differences these make visible.
type Stats struct {
	Steps       uint64 // total instructions retired
	ScalarInsts uint64
	VectorInsts uint64
	Vsetvlis    uint64
	BytesLoaded uint64
	BytesStored uint64
}

// VM interprets rvv programs against a flat little-endian memory.
type VM struct {
	Dialect Dialect
	VLEN    int // vector register width in bits (128 on the C920)

	Mem []byte
	X   [32]int64
	F   [32]float64
	V   [32][]byte

	vl   int
	sew  int
	lmul int // negative = fractional
	ta   bool

	Stats Stats
	// OpCounts tallies retired instructions, indexed by opcode; the
	// cycle-cost model (cost_test.go) consumes it.
	OpCounts [numOpcodes]uint64
}

// NewVM creates a VM with the given dialect, VLEN bits and memory size.
func NewVM(d Dialect, vlenBits, memBytes int) (*VM, error) {
	if vlenBits < 64 || vlenBits%64 != 0 {
		return nil, fmt.Errorf("rvv: VLEN %d must be a positive multiple of 64", vlenBits)
	}
	if memBytes <= 0 {
		return nil, fmt.Errorf("rvv: memory size %d", memBytes)
	}
	vm := &VM{Dialect: d, VLEN: vlenBits, Mem: make([]byte, memBytes)}
	for i := range vm.V {
		vm.V[i] = make([]byte, vlenBits/8)
	}
	vm.sew, vm.lmul = 32, 1
	return vm, nil
}

// VLMax returns VLEN/SEW scaled by LMUL for the current vtype.
func (vm *VM) VLMax() int {
	base := vm.VLEN / vm.sew
	if vm.lmul >= 1 {
		return base * vm.lmul
	}
	return base / -vm.lmul
}

func (vm *VM) checkMem(addr int64, n int) error {
	if addr < 0 || addr+int64(n) > int64(len(vm.Mem)) {
		return fmt.Errorf("rvv: memory access [%d,%d) out of bounds (%d bytes)",
			addr, addr+int64(n), len(vm.Mem))
	}
	return nil
}

// lane returns the byte slice of logical lane i of register group vd for
// element size esz bytes, honouring LMUL register grouping.
func (vm *VM) lane(vd, i, esz int) ([]byte, error) {
	perReg := vm.VLEN / 8 / esz
	reg := vd + i/perReg
	if reg >= 32 {
		return nil, fmt.Errorf("rvv: lane %d of v%d exceeds register file", i, vd)
	}
	off := (i % perReg) * esz
	return vm.V[reg][off : off+esz], nil
}

func (vm *VM) getF(lane []byte, esz int) float64 {
	if esz == 4 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(lane)))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(lane))
}

func (vm *VM) setF(lane []byte, esz int, val float64) {
	if esz == 4 {
		binary.LittleEndian.PutUint32(lane, math.Float32bits(float32(val)))
		return
	}
	binary.LittleEndian.PutUint64(lane, math.Float64bits(val))
}

func (vm *VM) getI(lane []byte, esz int) int64 {
	if esz == 4 {
		return int64(int32(binary.LittleEndian.Uint32(lane)))
	}
	return int64(binary.LittleEndian.Uint64(lane))
}

func (vm *VM) setI(lane []byte, esz int, val int64) {
	if esz == 4 {
		binary.LittleEndian.PutUint32(lane, uint32(val))
		return
	}
	binary.LittleEndian.PutUint64(lane, uint64(val))
}

// tailFill applies tail policy to lanes [vl, vlmax) of a destination.
func (vm *VM) tailFill(vd, esz int) error {
	if !vm.ta {
		return nil // tail-undisturbed (and always in v0.7.1)
	}
	for i := vm.vl; i < vm.VLMax(); i++ {
		lane, err := vm.lane(vd, i, esz)
		if err != nil {
			return err
		}
		for b := range lane {
			lane[b] = 0xFF // tail-agnostic: implementation fills with ones
		}
	}
	return nil
}

// Run executes the program until halt, fall-off-the-end, or maxSteps.
func (vm *VM) Run(p *Program, maxSteps uint64) error {
	if p.Dialect != vm.Dialect {
		return fmt.Errorf("rvv: program dialect %v does not match VM dialect %v",
			p.Dialect, vm.Dialect)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	pc := 0
	for pc < len(p.Insts) {
		if vm.Stats.Steps >= maxSteps {
			return fmt.Errorf("rvv: exceeded %d steps (infinite loop?)", maxSteps)
		}
		in := p.Insts[pc]
		vm.Stats.Steps++
		vm.OpCounts[in.Op]++
		next := pc + 1
		var err error
		switch in.Op {
		case OpLI:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = in.Imm
		case OpADD:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = vm.X[in.Rs1] + vm.X[in.Rs2]
		case OpADDI:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = vm.X[in.Rs1] + in.Imm
		case OpSUB:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = vm.X[in.Rs1] - vm.X[in.Rs2]
		case OpMUL:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = vm.X[in.Rs1] * vm.X[in.Rs2]
		case OpSLLI:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = vm.X[in.Rs1] << uint(in.Imm)
		case OpMV:
			vm.Stats.ScalarInsts++
			vm.X[in.Rd] = vm.X[in.Rs1]
		case OpBNEZ:
			vm.Stats.ScalarInsts++
			if vm.X[in.Rs1] != 0 {
				next = in.Target
			}
		case OpBEQZ:
			vm.Stats.ScalarInsts++
			if vm.X[in.Rs1] == 0 {
				next = in.Target
			}
		case OpBGE:
			vm.Stats.ScalarInsts++
			if vm.X[in.Rs1] >= vm.X[in.Rs2] {
				next = in.Target
			}
		case OpBLT:
			vm.Stats.ScalarInsts++
			if vm.X[in.Rs1] < vm.X[in.Rs2] {
				next = in.Target
			}
		case OpJ:
			vm.Stats.ScalarInsts++
			next = in.Target
		case OpHALT:
			vm.X[0] = 0
			return nil
		case OpFLW:
			vm.Stats.ScalarInsts++
			addr := vm.X[in.Rs1] + in.Imm
			if err = vm.checkMem(addr, 4); err == nil {
				vm.F[in.Rd] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vm.Mem[addr:])))
				vm.Stats.BytesLoaded += 4
			}
		case OpFLD:
			vm.Stats.ScalarInsts++
			addr := vm.X[in.Rs1] + in.Imm
			if err = vm.checkMem(addr, 8); err == nil {
				vm.F[in.Rd] = math.Float64frombits(binary.LittleEndian.Uint64(vm.Mem[addr:]))
				vm.Stats.BytesLoaded += 8
			}
		case OpFSW:
			vm.Stats.ScalarInsts++
			addr := vm.X[in.Rs1] + in.Imm
			if err = vm.checkMem(addr, 4); err == nil {
				binary.LittleEndian.PutUint32(vm.Mem[addr:], math.Float32bits(float32(vm.F[in.Rd])))
				vm.Stats.BytesStored += 4
			}
		case OpFSD:
			vm.Stats.ScalarInsts++
			addr := vm.X[in.Rs1] + in.Imm
			if err = vm.checkMem(addr, 8); err == nil {
				binary.LittleEndian.PutUint64(vm.Mem[addr:], math.Float64bits(vm.F[in.Rd]))
				vm.Stats.BytesStored += 8
			}
		case OpFLI:
			vm.Stats.ScalarInsts++
			vm.F[in.Rd] = in.FImm
		case OpFADD:
			vm.Stats.ScalarInsts++
			vm.F[in.Rd] = vm.F[in.Rs1] + vm.F[in.Rs2]
		case OpFMUL:
			vm.Stats.ScalarInsts++
			vm.F[in.Rd] = vm.F[in.Rs1] * vm.F[in.Rs2]

		case OpVSETVLI:
			vm.Stats.Vsetvlis++
			vm.Stats.VectorInsts++
			vm.sew, vm.lmul = in.SEW, in.LMUL
			vm.ta = in.TA && vm.Dialect == V10
			avl := vm.X[in.Rs1]
			vlmax := int64(vm.VLMax())
			if avl > vlmax {
				avl = vlmax
			}
			if avl < 0 {
				avl = 0
			}
			vm.vl = int(avl)
			vm.X[in.Rd] = avl

		case OpVLE32, OpVLW:
			err = vm.vload(in, 4)
		case OpVLE64:
			err = vm.vload(in, 8)
		case OpVLE:
			err = vm.vload(in, vm.sew/8)
		case OpVSE32, OpVSW:
			err = vm.vstore(in, 4)
		case OpVSE64:
			err = vm.vstore(in, 8)
		case OpVSE:
			err = vm.vstore(in, vm.sew/8)

		case OpVL1R:
			vm.Stats.VectorInsts++
			addr := vm.X[in.Rs1]
			n := vm.VLEN / 8
			if err = vm.checkMem(addr, n); err == nil {
				copy(vm.V[in.Rd], vm.Mem[addr:addr+int64(n)])
				vm.Stats.BytesLoaded += uint64(n)
			}
		case OpVS1R:
			vm.Stats.VectorInsts++
			addr := vm.X[in.Rs1]
			n := vm.VLEN / 8
			if err = vm.checkMem(addr, n); err == nil {
				copy(vm.Mem[addr:addr+int64(n)], vm.V[in.Rd])
				vm.Stats.BytesStored += uint64(n)
			}
		case OpVMV1R:
			vm.Stats.VectorInsts++
			copy(vm.V[in.Rd], vm.V[in.Rs1])

		case OpVADDVV:
			err = vm.vIntBinop(in, func(a, b int64) int64 { return a + b })
		case OpVADDVI:
			err = vm.vIntUnop(in, func(a int64) int64 { return a + in.Imm })
		case OpVFADDVV:
			err = vm.vFBinop(in, func(a, b float64) float64 { return a + b })
		case OpVFSUBVV:
			err = vm.vFBinop(in, func(a, b float64) float64 { return a - b })
		case OpVFMULVV:
			err = vm.vFBinop(in, func(a, b float64) float64 { return a * b })
		case OpVFMULVF:
			err = vm.vFScalarOp(in, func(a, s float64) float64 { return a * s })
		case OpVFADDVF:
			err = vm.vFScalarOp(in, func(a, s float64) float64 { return a + s })
		case OpVFMACCVF:
			err = vm.vFMaccVF(in)
		case OpVFMACCVV:
			err = vm.vFMaccVV(in)
		case OpVFMVVF:
			err = vm.vBroadcastF(in)
		case OpVMVVX:
			err = vm.vBroadcastX(in)
		case OpVFREDSUM:
			err = vm.vRedSum(in)

		default:
			err = fmt.Errorf("rvv: unimplemented opcode %s", opName(in.Op))
		}
		if err != nil {
			return fmt.Errorf("rvv: pc %d (%s): %w", pc, opName(in.Op), err)
		}
		pc = next
	}
	return nil
}

func (vm *VM) vload(in Inst, esz int) error {
	vm.Stats.VectorInsts++
	base := vm.X[in.Rs1]
	if err := vm.checkMem(base, esz*vm.vl); err != nil {
		return err
	}
	for i := 0; i < vm.vl; i++ {
		lane, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		copy(lane, vm.Mem[base+int64(i*esz):])
	}
	vm.Stats.BytesLoaded += uint64(esz * vm.vl)
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vstore(in Inst, esz int) error {
	vm.Stats.VectorInsts++
	base := vm.X[in.Rs1]
	if err := vm.checkMem(base, esz*vm.vl); err != nil {
		return err
	}
	for i := 0; i < vm.vl; i++ {
		lane, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		copy(vm.Mem[base+int64(i*esz):], lane)
	}
	vm.Stats.BytesStored += uint64(esz * vm.vl)
	return nil
}

func (vm *VM) vFBinop(in Inst, f func(a, b float64) float64) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		b, err := vm.lane(in.Rs2, i, esz)
		if err != nil {
			return err
		}
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setF(d, esz, f(vm.getF(a, esz), vm.getF(b, esz)))
	}
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vFScalarOp(in Inst, f func(a, s float64) float64) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	s := vm.F[in.Rs2]
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setF(d, esz, f(vm.getF(a, esz), s))
	}
	return vm.tailFill(in.Rd, esz)
}

// vFMaccVF and vFMaccVV are fused, as the RVV spec defines vfmacc: each
// lane is rounded once, at the element width (fmaLane, TestVFMaccFused).
func (vm *VM) vFMaccVF(in Inst) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	s := vm.F[in.Rs2]
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setF(d, esz, fmaLane(esz, s, vm.getF(a, esz), vm.getF(d, esz)))
	}
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vFMaccVV(in Inst) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		b, err := vm.lane(in.Rs2, i, esz)
		if err != nil {
			return err
		}
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setF(d, esz, fmaLane(esz, vm.getF(a, esz), vm.getF(b, esz), vm.getF(d, esz)))
	}
	return vm.tailFill(in.Rd, esz)
}

// fmaLane is one vfmacc lane, a*b + c rounded once at element width
// esz. At SEW=32 the operands are binary32 (a scalar register's value
// is rounded to binary32 first, as the lanes are).
func fmaLane(esz int, a, b, c float64) float64 {
	if esz == 4 {
		return float64(fma32(float32(a), float32(b), float32(c)))
	}
	return math.FMA(a, b, c)
}

// fma32 is the binary32 fused multiply-add a*b + c, rounded once. The
// product of two binary32 values is exact in float64, so a TwoSum
// gives the exact error of the float64 sum. When that error is nonzero
// the sum steps to its odd neighbour on the exact value's side (round
// to odd), and with 29 bits to spare the rounding to binary32 then
// lands where one rounding of the exact result would: a float64 sum
// that is a binary32 tie no longer rounds as one.
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b)) // exact
	s := p + float64(c)
	bv := s - p
	e := (p - (s - bv)) + (float64(c) - bv)
	if bits := math.Float64bits(s); e != 0 && !math.IsNaN(e) && bits&1 == 0 {
		if (e > 0) == (s > 0) {
			bits++
		} else {
			bits--
		}
		s = math.Float64frombits(bits)
	}
	return float32(s)
}

func (vm *VM) vIntBinop(in Inst, f func(a, b int64) int64) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		b, err := vm.lane(in.Rs2, i, esz)
		if err != nil {
			return err
		}
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setI(d, esz, f(vm.getI(a, esz), vm.getI(b, esz)))
	}
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vIntUnop(in Inst, f func(a int64) int64) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setI(d, esz, f(vm.getI(a, esz)))
	}
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vBroadcastF(in Inst) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	for i := 0; i < vm.vl; i++ {
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setF(d, esz, vm.F[in.Rs2])
	}
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vBroadcastX(in Inst) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	for i := 0; i < vm.vl; i++ {
		d, err := vm.lane(in.Rd, i, esz)
		if err != nil {
			return err
		}
		vm.setI(d, esz, vm.X[in.Rs1])
	}
	return vm.tailFill(in.Rd, esz)
}

func (vm *VM) vRedSum(in Inst) error {
	vm.Stats.VectorInsts++
	esz := vm.sew / 8
	acc, err := vm.lane(in.Rs2, 0, esz)
	if err != nil {
		return err
	}
	sum := vm.getF(acc, esz)
	for i := 0; i < vm.vl; i++ {
		a, err := vm.lane(in.Rs1, i, esz)
		if err != nil {
			return err
		}
		sum += vm.getF(a, esz)
	}
	d, err := vm.lane(in.Rd, 0, esz)
	if err != nil {
		return err
	}
	vm.setF(d, esz, sum)
	return nil
}

// WriteFloats stores a slice into memory at addr with the element size.
func (vm *VM) WriteFloats(addr int64, xs []float64, esz int) error {
	if err := vm.checkMem(addr, len(xs)*esz); err != nil {
		return err
	}
	for i, x := range xs {
		if esz == 4 {
			binary.LittleEndian.PutUint32(vm.Mem[addr+int64(i*4):], math.Float32bits(float32(x)))
		} else {
			binary.LittleEndian.PutUint64(vm.Mem[addr+int64(i*8):], math.Float64bits(x))
		}
	}
	return nil
}

// ReadFloats loads n elements of the given size from addr.
func (vm *VM) ReadFloats(addr int64, n, esz int) ([]float64, error) {
	if err := vm.checkMem(addr, n*esz); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if esz == 4 {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vm.Mem[addr+int64(i*4):])))
		} else {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(vm.Mem[addr+int64(i*8):]))
		}
	}
	return out, nil
}
