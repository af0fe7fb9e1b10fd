// Package rvv implements a small software RISC-V vector ISA with the
// two dialects the paper's toolchain discussion revolves around:
//
//   - RVV v0.7.1 — what the SG2042's XuanTie C920 cores execute, and
//     what T-Head's fork of GCC emits;
//   - RVV v1.0 — the ratified standard, and the only dialect Clang
//     emits, which is *incompatible* with the C920.
//
// The package provides an assembler/disassembler for a textual form, an
// interpreting virtual machine that executes programs against flat
// memory, and VLS (vector-length-specific) / VLA (vector-length-
// agnostic) code generators for simple element-wise kernels. Together
// with internal/rollback (the v1.0 -> v0.7.1 rewriter standing in for
// the RVV-Rollback tool) this makes the paper's compiler experiments
// executable: we can generate Clang-style v1.0 code, roll it back, run
// it on a v0.7.1 machine and check semantic equivalence.
//
// The scalar subset is just big enough to write strip-mined vector
// loops: integer ALU ops, branches, and scalar float load/store.
package rvv

import "fmt"

// Dialect selects vector-extension semantics.
type Dialect int

const (
	// V071 is RVV v0.7.1: no tail/mask policy bits in vsetvli (tail is
	// always undisturbed), typed vector loads (vlw.v/vle.v), no
	// fractional LMUL, no whole-register moves.
	V071 Dialect = iota
	// V10 is RVV v1.0: width-encoded loads (vle32.v/vle64.v), explicit
	// ta/tu policy, fractional LMUL, whole-register load/store/move.
	V10
)

func (d Dialect) String() string {
	if d == V071 {
		return "rvv0.7.1"
	}
	return "rvv1.0"
}

// Opcode enumerates the supported instructions.
type Opcode int

const (
	// Scalar integer.
	OpLI   Opcode = iota // li xd, imm
	OpADD                // add xd, xs1, xs2
	OpADDI               // addi xd, xs1, imm
	OpSUB                // sub xd, xs1, xs2
	OpMUL                // mul xd, xs1, xs2
	OpSLLI               // slli xd, xs1, imm
	OpMV                 // mv xd, xs1

	// Control flow (Target is an instruction index after assembly).
	OpBNEZ // bnez xs1, label
	OpBEQZ // beqz xs1, label
	OpBGE  // bge xs1, xs2, label
	OpBLT  // blt xs1, xs2, label
	OpJ    // j label
	OpHALT // halt (pseudo; stops the VM)

	// Scalar float.
	OpFLW  // flw fd, imm(xs1)
	OpFLD  // fld fd, imm(xs1)
	OpFSW  // fsw fs, imm(xs1)
	OpFSD  // fsd fs, imm(xs1)
	OpFLI  // fli fd, imm-float (pseudo constant load)
	OpFADD // fadd fd, fs1, fs2 (SEW-agnostic double arithmetic)
	OpFMUL // fmul fd, fs1, fs2

	// Vector configuration.
	OpVSETVLI // vsetvli xd, xs1, <vtype tokens>

	// Vector memory, v1.0 mnemonics.
	OpVLE32 // vle32.v vd, (xs1)
	OpVLE64 // vle64.v vd, (xs1)
	OpVSE32 // vse32.v vs, (xs1)
	OpVSE64 // vse64.v vs, (xs1)

	// Vector memory, v0.7.1 mnemonics.
	OpVLW // vlw.v vd, (xs1): load 32-bit elements
	OpVSW // vsw.v vs, (xs1)
	OpVLE // vle.v vd, (xs1): load SEW-sized elements
	OpVSE // vse.v vs, (xs1)

	// Vector arithmetic (dialect-shared).
	OpVADDVV   // vadd.vv vd, vs1, vs2 (integer)
	OpVADDVI   // vadd.vi vd, vs1, imm
	OpVFADDVV  // vfadd.vv vd, vs1, vs2
	OpVFSUBVV  // vfsub.vv vd, vs1, vs2
	OpVFMULVV  // vfmul.vv vd, vs1, vs2
	OpVFMULVF  // vfmul.vf vd, vs1, fs
	OpVFADDVF  // vfadd.vf vd, vs1, fs
	OpVFMACCVF // vfmacc.vf vd, fs, vs1: vd += fs*vs1
	OpVFMACCVV // vfmacc.vv vd, vs1, vs2: vd += vs1*vs2
	OpVFMVVF   // vfmv.v.f vd, fs (broadcast)
	OpVMVVX    // vmv.v.x vd, xs (broadcast int)
	OpVFREDSUM // vfredsum.vs vd, vs1, vs2: vd[0] = vs2[0] + sum(vs1[0..vl))

	// v1.0-only whole-register ops.
	OpVL1R  // vl1r.v vd, (xs1)
	OpVS1R  // vs1r.v vs, (xs1)
	OpVMV1R // vmv1r.v vd, vs

	numOpcodes // sentinel: the opcode count, sizing VM.OpCounts
)

// Inst is one decoded instruction.
type Inst struct {
	Op   Opcode
	Rd   int // destination register index (x, f or v depending on Op)
	Rs1  int
	Rs2  int
	Imm  int64
	FImm float64
	// vsetvli payload.
	SEW  int  // 32 or 64
	LMUL int  // 1,2,4,8; v1.0 fractional encoded as negative: -2 => mf2
	TA   bool // tail-agnostic (v1.0 only)
	MA   bool // mask-agnostic (v1.0 only)
	// Branch target: label name before assembly, instruction index after.
	Label  string
	Target int
}

// Program is an assembled instruction sequence.
type Program struct {
	Dialect Dialect
	Insts   []Inst
}

// vectorOnlyV10 lists opcodes illegal in v0.7.1.
var vectorOnlyV10 = map[Opcode]bool{
	OpVLE32: true, OpVLE64: true, OpVSE32: true, OpVSE64: true,
	OpVL1R: true, OpVS1R: true, OpVMV1R: true,
}

// vectorOnlyV071 lists opcodes illegal in v1.0.
var vectorOnlyV071 = map[Opcode]bool{
	OpVLW: true, OpVSW: true, OpVLE: true, OpVSE: true,
}

// ValidFor reports whether the instruction is legal in the dialect.
func (in Inst) ValidFor(d Dialect) error {
	if in.Op < 0 || in.Op >= numOpcodes {
		return fmt.Errorf("rvv: unknown opcode %s", opName(in.Op))
	}
	if d == V071 {
		if vectorOnlyV10[in.Op] {
			return fmt.Errorf("rvv: %s is not part of RVV v0.7.1", opName(in.Op))
		}
		if in.Op == OpVSETVLI {
			if in.LMUL < 1 {
				return fmt.Errorf("rvv: fractional LMUL is not part of RVV v0.7.1")
			}
			if in.TA || in.MA {
				return fmt.Errorf("rvv: ta/ma policy bits are not part of RVV v0.7.1")
			}
		}
		return nil
	}
	if vectorOnlyV071[in.Op] {
		return fmt.Errorf("rvv: %s was removed in RVV v1.0", opName(in.Op))
	}
	return nil
}

// Validate checks every instruction against the program's dialect and
// that branch targets resolve.
func (p *Program) Validate() error {
	for i, in := range p.Insts {
		if err := in.ValidFor(p.Dialect); err != nil {
			return fmt.Errorf("inst %d: %w", i, err)
		}
		switch in.Op {
		case OpBNEZ, OpBEQZ, OpBGE, OpBLT, OpJ:
			if in.Target < 0 || in.Target > len(p.Insts) {
				return fmt.Errorf("inst %d: branch target %d out of range", i, in.Target)
			}
		}
	}
	return nil
}
