// Package prec defines the floating-point precisions the benchmark suite
// runs at. The paper evaluates every kernel in both single (FP32) and
// double (FP64) precision; vector lane counts and memory traffic both
// depend on the element width, so the precision threads through the
// kernel implementations, the compiler model and the performance model.
package prec

import "fmt"

// Precision identifies a floating-point element width.
type Precision int

const (
	// F32 is IEEE-754 binary32 (the paper's "FP32" / single precision).
	F32 Precision = iota
	// F64 is IEEE-754 binary64 (the paper's "FP64" / double precision).
	F64
)

// Bytes returns the element size in bytes.
func (p Precision) Bytes() int {
	switch p {
	case F32:
		return 4
	case F64:
		return 8
	}
	panic(fmt.Sprintf("prec: invalid precision %d", int(p)))
}

// Bits returns the element size in bits.
func (p Precision) Bits() int { return p.Bytes() * 8 }

// Lanes returns how many elements of this precision fit in a vector
// register of the given width. A 128-bit RVV register holds 4 FP32 or
// 2 FP64 lanes; a 512-bit AVX-512 register holds 16 or 8.
func (p Precision) Lanes(vectorWidthBits int) int {
	if vectorWidthBits <= 0 {
		return 1
	}
	n := vectorWidthBits / p.Bits()
	if n < 1 {
		return 1
	}
	return n
}

// String returns the paper's name for the precision ("FP32" or "FP64").
func (p Precision) String() string {
	switch p {
	case F32:
		return "FP32"
	case F64:
		return "FP64"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// Both lists the two precisions in the order the paper reports them.
var Both = []Precision{F32, F64}

// Float is the constraint satisfied by the two element types the suite
// instantiates kernels with.
type Float interface {
	~float32 | ~float64
}
