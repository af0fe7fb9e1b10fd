package machine

import (
	"math"
	"math/bits"
)

// Fingerprint folds every Machine parameter into one 64-bit FNV-1a
// hash. The study engine keys its suite cache on it so a copied preset
// with a tweaked core count or cache size misses instead of colliding
// with the stock entry; serving layers key rendered-response caches on
// it for the same reason. The hash is hand-rolled over the fields —
// no reflection, no formatting, no allocation — because it sits on the
// cache-hit hot path of every engine request.
//
// Every field of Machine (and of the CacheLevel and Vector structs it
// embeds) must be folded in here; fingerprint_test.go pins the field
// counts with reflection so adding a field without extending the hash
// fails the build's tests rather than silently weakening the key.
func (m *Machine) Fingerprint() uint64 { return m.fingerprint(true) }

// UncoreFingerprint is Fingerprint's field walk without Name, Label,
// ClockHz and Vector.WidthBits: it hashes everything the performance
// model's clock-independent half reads, so every clock and vector-width
// variant of a machine shares its base's value. perfmodel keys its
// uncore memo on it.
func (m *Machine) UncoreFingerprint() uint64 { return m.fingerprint(false) }

// fingerprint walks the fields in one fixed order; full adds the four
// the uncore walk leaves out, at their places in that order.
func (m *Machine) fingerprint(full bool) uint64 {
	h := newFieldHasher()
	if full {
		h.str(m.Name)
		h.str(m.Label)
		h.f64(m.ClockHz)
	}
	h.int(m.Cores)
	h.int(m.ClusterSize)
	h.int(len(m.NUMARegionOf))
	for _, r := range m.NUMARegionOf {
		h.int(r)
	}
	h.int(m.NUMARegions)
	h.int(m.MemCtrlPerNUMA)
	h.f64(m.CtrlBW)
	h.f64(m.CoreMemBW)
	h.f64(m.MemLatencyNs)
	h.f64(m.MLP)
	h.int(len(m.Caches))
	for i := range m.Caches {
		c := &m.Caches[i]
		h.str(c.Name)
		h.u64(uint64(c.SizeBytes))
		h.int(c.LineBytes)
		h.int(c.Assoc)
		h.int(int(c.Shared))
		h.f64(c.BWPerCore)
		h.f64(c.BWAggregate)
		h.f64(c.LatencyNs)
	}
	h.int(int(m.Vector.ISA))
	if full {
		h.int(m.Vector.WidthBits)
	}
	h.bool(m.Vector.FMA)
	h.int(m.Vector.Pipes)
	h.f64(m.ScalarFlopsPerCycle)
	h.f64(m.VectorFlopsPerCyclePerLane)
	h.f64(m.IssueWidth)
	h.bool(m.OutOfOrder)
	h.f64(m.ForkJoinNsBase)
	h.f64(m.ForkJoinNsPerThread)
	h.f64(m.StragglerNs)
	h.f64(m.JitterFullOccupancy)
	h.int(m.Sockets)
	h.int(m.Nodes)
	h.f64(m.XSocketBW)
	h.f64(m.XSocketLatencyNs)
	h.f64(m.NodeBW)
	h.f64(m.NodeLatencyNs)
	return h.sum()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k mod 2^64: folding k zero bytes into
// an FNV-1a state is (h ^ 0)·p repeated k times, one multiply by p^k.
var fnvPrimePow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime64
	}
	return
}()

// fieldHasher is a zero-allocation FNV-1a accumulator. Each add method
// folds a length- or width-delimited encoding of the value in, so
// adjacent fields cannot alias (e.g. strings "ab","c" vs "a","bc").
type fieldHasher struct{ h uint64 }

func newFieldHasher() fieldHasher { return fieldHasher{h: fnvOffset64} }

func (f *fieldHasher) sum() uint64 { return f.h }

// u64 folds v's eight little-endian bytes in, bit-identical to the
// byte-serial FNV-1a loop. Runs of zero bytes — the high bytes of
// small integers, the low mantissa bytes of round float64s — cost one
// multiply each instead of one per byte.
func (f *fieldHasher) u64(v uint64) {
	if v == 0 {
		f.h *= fnvPrimePow[8]
		return
	}
	lo := bits.TrailingZeros64(v) >> 3 // zero low bytes
	hi := (bits.Len64(v) + 7) >> 3     // bytes up to the highest nonzero one
	h := f.h * fnvPrimePow[lo]
	for v >>= 8 * lo; lo < hi; lo++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	f.h = h * fnvPrimePow[8-hi]
}

func (f *fieldHasher) int(v int) { f.u64(uint64(v)) }

func (f *fieldHasher) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fieldHasher) bool(v bool) {
	if v {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fieldHasher) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h = (f.h ^ uint64(s[i])) * fnvPrime64
	}
}
