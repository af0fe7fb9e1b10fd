package machine

// What-if derivations. The paper evaluates seven fixed CPUs, but its
// follow-ups (the SG2044 evaluation, arXiv:2508.13840, and the
// multi-socket study, arXiv:2502.10320) show the interesting questions
// are parametric: what happens to these kernels when you change vector
// width, core count, clock, or NUMA layout? Each helper clones the
// receiver, changes one axis, rebuilds whatever topology depends on it,
// revalidates, and marks the variant's label with a suffix
// ("SG2042/v256") so reports — and the study engine's config-keyed
// cache — distinguish it from the stock machine. Every call returns a
// new machine the caller owns outright; nothing is memoized here (the
// campaign planner derives each variant once per compiled plan, and
// fingerprints it only when a point first needs it). A cold campaign
// compile is mostly these derivations, so they stay cheap: the clock
// label is built with strconv, and Validate counts NUMA regions
// without a map.

import (
	"fmt"
	"math"
	"strconv"
)

// MaxCores bounds how large a (derived or decoded) machine can be —
// far beyond any modelled silicon, but small enough that a
// network-supplied core count cannot allocate unbounded NUMA maps.
const MaxCores = 1 << 16

// WithCores returns a copy of m with n cores (1 to MaxCores). The NUMA
// map is rebuilt as balanced contiguous blocks over the existing
// region count; a variant with fewer cores than regions collapses to a
// single region holding every memory controller, so total controllers
// — and whole-socket bandwidth — are always conserved. Cluster size
// and everything else is kept. The label gains a "/cN" suffix.
func (m *Machine) WithCores(n int) (*Machine, error) {
	if n < 1 || n > MaxCores {
		return nil, fmt.Errorf("machine %s: cannot derive %d-core variant (want 1 to %d)",
			m.Label, n, MaxCores)
	}
	if pk := m.Packages(); pk > 1 && (n%pk != 0 || n < m.NUMARegions) {
		return nil, fmt.Errorf("machine %s: %d cores do not divide across %d packages (derive sockets or nodes instead)",
			m.Label, n, pk)
	}
	v := m.Clone()
	v.Cores = n
	if n < m.NUMARegions {
		v.NUMARegions = 1
		v.MemCtrlPerNUMA = m.MemCtrlPerNUMA * m.NUMARegions
	}
	v.NUMARegionOf = make([]int, n)
	for c := range v.NUMARegionOf {
		v.NUMARegionOf[c] = c * v.NUMARegions / n
	}
	v.Label = fmt.Sprintf("%s/c%d", m.Label, n)
	return validated(v)
}

// WithClock returns a copy of m clocked at hz. Bandwidths are left
// untouched: DRAM and cache sustained rates are properties of the
// uncore, which is exactly what makes a clock sweep interesting for
// memory-bound kernels. The label gains a "/<GHz>GHz" suffix.
func (m *Machine) WithClock(hz float64) (*Machine, error) {
	if hz <= 0 || math.IsNaN(hz) || math.IsInf(hz, 0) {
		return nil, fmt.Errorf("machine %s: cannot derive variant clocked at %v Hz", m.Label, hz)
	}
	v := m.Clone()
	v.ClockHz = hz
	// strconv's shortest 'g' form is exactly what %g prints, without
	// fmt's reflection: a cold campaign derives one clock variant per
	// grid value while it compiles.
	v.Label = m.Label + "/" + strconv.FormatFloat(hz/1e9, 'g', -1, 64) + "GHz"
	return validated(v)
}

// WithVectorBits returns a copy of m with the vector register width set
// to bits — the "what if the C920 had 256-bit RVV?" question the SG2044
// answers in silicon. Per-lane rates are kept, so peak vector flops
// scale with the width. Deriving from a machine without a vector unit
// is an error. The label gains a "/vN" suffix.
func (m *Machine) WithVectorBits(bits int) (*Machine, error) {
	if m.Vector.ISA == NoVector {
		return nil, fmt.Errorf("machine %s: no vector unit to widen", m.Label)
	}
	if bits < 8 {
		return nil, fmt.Errorf("machine %s: cannot derive %d-bit vector variant", m.Label, bits)
	}
	v := m.Clone()
	v.Vector.WidthBits = bits
	v.Label = fmt.Sprintf("%s/v%d", m.Label, bits)
	return validated(v)
}

// WithNUMARegions returns a copy of m with n NUMA regions. The total
// memory-controller count is conserved — "what if the SG2042's four
// single-controller regions were one four-controller region?" — so the
// whole-socket bandwidth is unchanged and only its partitioning moves.
// It errors when the controllers do not divide evenly across n regions.
// The NUMA map is rebuilt as balanced contiguous blocks and the label
// gains a "/nN" suffix.
func (m *Machine) WithNUMARegions(n int) (*Machine, error) {
	if n < 1 || n > m.Cores {
		return nil, fmt.Errorf("machine %s: cannot derive %d NUMA regions for %d cores",
			m.Label, n, m.Cores)
	}
	total := m.MemCtrlPerNUMA * m.NUMARegions
	if total%n != 0 {
		return nil, fmt.Errorf("machine %s: %d memory controllers do not divide across %d NUMA regions",
			m.Label, total, n)
	}
	if pk := m.Packages(); pk > 1 && n%pk != 0 {
		return nil, fmt.Errorf("machine %s: %d NUMA regions do not divide across %d packages",
			m.Label, n, pk)
	}
	v := m.Clone()
	v.NUMARegions = n
	v.MemCtrlPerNUMA = total / n
	v.NUMARegionOf = make([]int, m.Cores)
	for c := range v.NUMARegionOf {
		v.NUMARegionOf[c] = c * n / m.Cores
	}
	v.Label = fmt.Sprintf("%s/n%d", m.Label, n)
	return validated(v)
}

// Default inter-socket and inter-node link parameters, applied when a
// derivation crosses the socket or node boundary and the base carries
// no explicit link. The socket link defaults to half of one socket's
// DRAM bandwidth at 1.5x its idle latency (the coherent-link regime the
// multi-socket study, arXiv:2502.10320, operates in); the node link
// defaults to InfiniBand-HDR-class alpha-beta parameters, matching the
// cluster model's interconnect presets.
const (
	defaultNodeBW        = 23.0e9 // bytes/second, InfiniBand HDR class
	defaultNodeLatencyNs = 1300
)

// WithSockets returns a copy of m with n sockets per node. The package
// structure of the base — cores, NUMA regions and the region map of one
// socket — is replicated across the n sockets, so total cores, regions
// and memory controllers all scale with the socket count. A base with
// no explicit inter-socket link gains the default one (half a socket's
// DRAM bandwidth, 1.5x its DRAM latency). The label gains a "/sN"
// suffix.
func (m *Machine) WithSockets(n int) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("machine %s: cannot derive %d-socket variant", m.Label, n)
	}
	cp, rp := m.CoresPerSocket(), m.RegionsPerSocket()
	if cp*n*m.NodeCount() > MaxCores {
		return nil, fmt.Errorf("machine %s: %d sockets of %d cores exceed %d cores",
			m.Label, n, cp, MaxCores)
	}
	v := m.Clone()
	v.Sockets = n
	v.Cores = cp * n * m.NodeCount()
	v.NUMARegions = rp * n * m.NodeCount()
	v.NUMARegionOf = replicatePackages(m.NUMARegionOf[:cp], rp, v.Cores)
	if n > 1 {
		if v.XSocketBW == 0 {
			v.XSocketBW = 0.5 * float64(m.MemCtrlPerNUMA) * m.CtrlBW * float64(rp)
		}
		if v.XSocketLatencyNs == 0 {
			v.XSocketLatencyNs = 1.5 * m.MemLatencyNs
		}
	}
	v.Label = fmt.Sprintf("%s/s%d", m.Label, n)
	return validated(v)
}

// WithNodes returns a copy of m fused across n nodes: the base's
// per-node structure (which may itself be multi-socket) replicated n
// times, with an inter-node alpha-beta link (defaulting to
// InfiniBand-HDR-class parameters when the base carries none). The
// label gains a "/nodeN" suffix.
func (m *Machine) WithNodes(n int) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("machine %s: cannot derive %d-node variant", m.Label, n)
	}
	cpn := m.Cores / m.NodeCount()
	rpn := m.NUMARegions / m.NodeCount()
	if cpn*n > MaxCores {
		return nil, fmt.Errorf("machine %s: %d nodes of %d cores exceed %d cores",
			m.Label, n, cpn, MaxCores)
	}
	v := m.Clone()
	v.Nodes = n
	v.Cores = cpn * n
	v.NUMARegions = rpn * n
	v.NUMARegionOf = replicatePackages(m.NUMARegionOf[:cpn], rpn, v.Cores)
	if n > 1 {
		if v.NodeBW == 0 {
			v.NodeBW = defaultNodeBW
		}
		if v.NodeLatencyNs == 0 {
			v.NodeLatencyNs = defaultNodeLatencyNs
		}
	}
	v.Label = fmt.Sprintf("%s/node%d", m.Label, n)
	return validated(v)
}

// validated returns a derived variant once it passes Validate.
func validated(v *Machine) (*Machine, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// replicatePackages tiles one package's region pattern (regions spanning
// [0, regionsPer)) across cores/len(pattern) packages, offsetting each
// package's regions by its index.
func replicatePackages(pattern []int, regionsPer, cores int) []int {
	per := len(pattern)
	out := make([]int, cores)
	for c := range out {
		out[c] = (c/per)*regionsPer + pattern[c%per]
	}
	return out
}
