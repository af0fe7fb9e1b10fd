// Package machine describes the CPUs under test: core counts, clock,
// cluster/NUMA topology, cache hierarchy with sharing domains, vector
// ISA, and memory-system parameters. The performance model consumes
// these descriptions; the presets in presets.go mirror the hardware
// table in Section 2 and Table 4 of the paper.
package machine

import (
	"fmt"
	"slices"

	"repro/internal/prec"
)

// VectorISA names the SIMD/vector extension a core provides.
type VectorISA int

const (
	// NoVector means the core has no vector unit (SiFive U74: RV64GC
	// only — "there is no support for the RISC-V vector extension").
	NoVector VectorISA = iota
	// RVV071 is the RISC-V vector extension v0.7.1 (XuanTie C920).
	RVV071
	// RVV10 is the ratified RISC-V vector extension v1.0.
	RVV10
	// AVX is 128/256-bit AVX without FMA (Sandybridge).
	AVX
	// AVX2 is 256-bit AVX2 with FMA (Rome, Broadwell).
	AVX2
	// AVX512 is 512-bit AVX-512 with FMA (Icelake).
	AVX512
)

var isaNames = map[VectorISA]string{
	NoVector: "none",
	RVV071:   "RVV v0.7.1",
	RVV10:    "RVV v1.0",
	AVX:      "AVX",
	AVX2:     "AVX2",
	AVX512:   "AVX512",
}

func (v VectorISA) String() string {
	if s, ok := isaNames[v]; ok {
		return s
	}
	return fmt.Sprintf("VectorISA(%d)", int(v))
}

// Vector describes a core's vector capability.
type Vector struct {
	ISA VectorISA `json:"isa"`
	// WidthBits is the vector register width (128 for the C920 and
	// Sandybridge AVX FP, 256 for AVX2, 512 for AVX-512).
	WidthBits int `json:"width_bits,omitempty"`
	// FMA reports whether the vector unit fuses multiply-add (doubles
	// peak flops/cycle). Sandybridge AVX has separate add and multiply
	// ports but no FMA.
	FMA bool `json:"fma,omitempty"`
	// Pipes is the number of vector execution pipes (2 for the x86
	// server cores, 1 for the C920's single 128-bit unit).
	Pipes int `json:"pipes,omitempty"`
}

// Lanes returns the SIMD lane count for the precision, or 1 without a
// vector unit.
func (v Vector) Lanes(p prec.Precision) int {
	if v.ISA == NoVector {
		return 1
	}
	return p.Lanes(v.WidthBits)
}

// Domain identifies the sharing scope of a cache level.
type Domain int

const (
	// PerCore: private to each core (L1, and per-core L2 on x86).
	PerCore Domain = iota
	// PerCluster: shared by a cluster of cores (the C920's 1 MB L2 per
	// four-core cluster; Rome's L3 per 4-core CCX).
	PerCluster
	// PerSocket: shared by every core in the package (L3 / system cache).
	PerSocket
)

func (d Domain) String() string {
	switch d {
	case PerCore:
		return "per-core"
	case PerCluster:
		return "per-cluster"
	case PerSocket:
		return "per-socket"
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// CacheLevel describes one level of the hierarchy.
type CacheLevel struct {
	Name      string `json:"name"`       // "L1D", "L2", "L3"
	SizeBytes int64  `json:"size_bytes"` // capacity of one instance of this level
	LineBytes int    `json:"line_bytes"`
	Assoc     int    `json:"assoc"`
	Shared    Domain `json:"shared"`
	// BWPerCore is sustained bandwidth from this level into one core,
	// bytes/second.
	BWPerCore float64 `json:"bw_per_core"`
	// BWAggregate is the total bandwidth one instance of this level can
	// deliver to all its sharers together, bytes/second. Sharing
	// contention kicks in when sharers' demands exceed it.
	BWAggregate float64 `json:"bw_aggregate"`
	// LatencyNs is the load-to-use latency of this level.
	LatencyNs float64 `json:"latency_ns"`
}

// Machine is a complete CPU description. The struct round-trips
// through JSON (see FromJSON/ToJSON in json.go), so clients of the
// study engine can define custom hardware rather than picking a preset.
type Machine struct {
	Name  string `json:"name"`
	Label string `json:"label"` // short label used in report tables ("SG2042", "Rome")

	ClockHz float64 `json:"clock_hz"`
	Cores   int     `json:"cores"`
	// ClusterSize is the number of cores per L2/LLC cluster (4 on the
	// SG2042 and Rome; 1 where there is no intermediate sharing domain).
	ClusterSize int `json:"cluster_size"`
	// NUMARegionOf maps core id -> NUMA region id. Length == Cores.
	NUMARegionOf []int `json:"numa_region_of"`
	NUMARegions  int   `json:"numa_regions"`

	// MemCtrlPerNUMA is the number of memory controllers serving each
	// NUMA region ("there is one DDR memory controller per NUMA region"
	// on the SG2042; Rome has eight for four regions).
	MemCtrlPerNUMA int `json:"mem_ctrl_per_numa"`
	// CtrlBW is the sustained bandwidth of one memory controller,
	// bytes/second.
	CtrlBW float64 `json:"ctrl_bw"`
	// CoreMemBW caps the DRAM bandwidth a single core can extract
	// (limited by outstanding misses), bytes/second.
	CoreMemBW float64 `json:"core_mem_bw"`
	// MemLatencyNs is the idle DRAM access latency.
	MemLatencyNs float64 `json:"mem_latency_ns"`
	// MLP is the effective memory-level parallelism of one core
	// (outstanding misses an OoO core overlaps; ~1 for a simple
	// in-order core without an aggressive prefetcher).
	MLP float64 `json:"mlp"`

	Caches []CacheLevel `json:"caches"`
	Vector Vector       `json:"vector"`

	// ScalarFlopsPerCycle is peak scalar FP throughput of one core
	// (FMA counts as 2). The C920 dual-issues FP ops; the U74 has a
	// single FP pipe.
	ScalarFlopsPerCycle float64 `json:"scalar_flops_per_cycle"`
	// VectorFlopsPerCyclePerLane: flops per cycle per lane when
	// vectorised (2 with FMA, Pipes scales it).
	// Peak vector flops/cycle = lanes * this.
	VectorFlopsPerCyclePerLane float64 `json:"vector_flops_per_cycle_per_lane"`
	// IssueWidth is the instructions/cycle front-end sustain rate; the
	// model uses it for instruction-overhead-bound loops.
	IssueWidth float64 `json:"issue_width"`
	// OutOfOrder: out-of-order cores overlap compute and memory time
	// (roofline max); in-order cores largely serialise them.
	OutOfOrder bool `json:"out_of_order"`

	// ForkJoinNsBase and ForkJoinNsPerThread model the cost of one
	// OpenMP parallel region (fork + barrier + join): base + per-thread
	// linear term.
	ForkJoinNsBase      float64 `json:"fork_join_ns_base"`
	ForkJoinNsPerThread float64 `json:"fork_join_ns_per_thread"`
	// StragglerNs is the additional per-region delay when the machine
	// approaches full occupancy: barrier contention across the slow
	// uncore plus OS preemption of the slowest thread. The model scales
	// it as StragglerNs * (threads/Cores)^3.7, which reproduces the
	// cliff the paper observes between 32 and 64 threads on the SG2042
	// (Tables 1-3) while leaving dedicated HPC nodes nearly unaffected.
	StragglerNs float64 `json:"straggler_ns"`
	// JitterFullOccupancy is the multiplicative slowdown applied when
	// every physical core is busy (OS daemons and the runtime itself
	// compete; the paper sees severe degradation at 64 threads).
	JitterFullOccupancy float64 `json:"jitter_full_occupancy"`

	// Sockets is the number of CPU packages per node (0 and 1 both mean
	// a single socket, the paper's regime). Cores, NUMARegions and the
	// NUMA map are totals across all sockets and nodes: the description
	// is partitioned into Nodes x Sockets equal packages of contiguous
	// core ids, each holding RegionsPerSocket contiguous NUMA regions.
	// The multi-socket high-core-count study (arXiv:2502.10320) is the
	// regime these fields model.
	Sockets int `json:"sockets,omitempty"`
	// Nodes is the number of network-coupled nodes fused into this
	// description (0 and 1 both mean a single node). A multi-node
	// machine models a tightly-coupled partition as one schedulable
	// description so sweeps and campaigns can cross the node boundary.
	Nodes int `json:"nodes,omitempty"`
	// XSocketBW and XSocketLatencyNs are the alpha-beta parameters of
	// the coherent inter-socket link (bytes/second and per-hop
	// nanoseconds). Required when Sockets > 1.
	XSocketBW        float64 `json:"xsocket_bw,omitempty"`
	XSocketLatencyNs float64 `json:"xsocket_latency_ns,omitempty"`
	// NodeBW and NodeLatencyNs are the alpha-beta parameters of the
	// inter-node interconnect. Required when Nodes > 1.
	NodeBW        float64 `json:"node_bw,omitempty"`
	NodeLatencyNs float64 `json:"node_latency_ns,omitempty"`
}

// SocketCount returns the number of sockets per node (>= 1; the zero
// value means one socket, so every pre-existing description is
// single-socket).
func (m *Machine) SocketCount() int {
	if m.Sockets < 1 {
		return 1
	}
	return m.Sockets
}

// NodeCount returns the number of nodes (>= 1).
func (m *Machine) NodeCount() int {
	if m.Nodes < 1 {
		return 1
	}
	return m.Nodes
}

// Packages returns the total number of CPU packages: nodes x sockets.
func (m *Machine) Packages() int { return m.NodeCount() * m.SocketCount() }

// CoresPerSocket returns the core count of one package. For every
// single-socket, single-node machine this is simply Cores.
func (m *Machine) CoresPerSocket() int { return m.Cores / m.Packages() }

// RegionsPerSocket returns the NUMA region count of one package.
func (m *Machine) RegionsPerSocket() int { return m.NUMARegions / m.Packages() }

// SocketOf returns the global package index of a core (0 on any
// single-socket, single-node machine). Packages are contiguous blocks
// of core ids.
func (m *Machine) SocketOf(core int) int { return core / m.CoresPerSocket() }

// NodeOf returns the node index of a core.
func (m *Machine) NodeOf(core int) int {
	return core / (m.CoresPerSocket() * m.SocketCount())
}

// Clone returns a deep copy of the machine; mutating the copy (or its
// NUMA map and cache levels) never affects the original. The registry
// and the derivation helpers hand out clones so a preset can never be
// corrupted in place.
func (m *Machine) Clone() *Machine {
	c := *m
	c.NUMARegionOf = append([]int(nil), m.NUMARegionOf...)
	c.Caches = append([]CacheLevel(nil), m.Caches...)
	return &c
}

// ClusterOf returns the cluster id of a core.
func (m *Machine) ClusterOf(core int) int {
	if m.ClusterSize <= 1 {
		return core
	}
	return core / m.ClusterSize
}

// Clusters returns the number of clusters.
func (m *Machine) Clusters() int {
	if m.ClusterSize <= 1 {
		return m.Cores
	}
	return (m.Cores + m.ClusterSize - 1) / m.ClusterSize
}

// CoresInNUMA returns the core ids of one NUMA region, ascending.
func (m *Machine) CoresInNUMA(region int) []int {
	var out []int
	for c, r := range m.NUMARegionOf {
		if r == region {
			out = append(out, c)
		}
	}
	return out
}

// ClustersInNUMA returns the cluster ids present in a NUMA region,
// in ascending core order.
func (m *Machine) ClustersInNUMA(region int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, c := range m.CoresInNUMA(region) {
		cl := m.ClusterOf(c)
		if !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	return out
}

// NUMABandwidth is the DRAM bandwidth available to one NUMA region.
func (m *Machine) NUMABandwidth() float64 {
	return float64(m.MemCtrlPerNUMA) * m.CtrlBW
}

// Cache returns the cache level with the given name, or nil.
func (m *Machine) Cache(name string) *CacheLevel {
	for i := range m.Caches {
		if m.Caches[i].Name == name {
			return &m.Caches[i]
		}
	}
	return nil
}

// PeakVectorFlops returns one core's peak vector flops/second at the
// precision (falls back to scalar peak without a vector unit).
func (m *Machine) PeakVectorFlops(p prec.Precision) float64 {
	if m.Vector.ISA == NoVector {
		return m.PeakScalarFlops()
	}
	lanes := float64(m.Vector.Lanes(p))
	return lanes * m.VectorFlopsPerCyclePerLane * m.ClockHz
}

// PeakScalarFlops returns one core's peak scalar flops/second.
func (m *Machine) PeakScalarFlops() float64 {
	return m.ScalarFlopsPerCycle * m.ClockHz
}

// populatedRegions counts the distinct regions NUMARegionOf names, all
// of them already checked to lie in [0, NUMARegions). The seen-set is
// sized by the region count only when that is at most Cores (so at
// most MaxCores), never by a client's numa_regions: with more regions
// than cores some region is empty anyway, and the count comes from a
// sorted copy of the map instead.
func (m *Machine) populatedRegions() int {
	if m.NUMARegions <= m.Cores {
		var small [64]bool // every preset; no allocation
		seen, n := small[:], 0
		if m.NUMARegions > len(small) {
			seen = make([]bool, m.NUMARegions)
		}
		for _, r := range m.NUMARegionOf {
			if !seen[r] {
				seen[r] = true
				n++
			}
		}
		return n
	}
	regions := slices.Clone(m.NUMARegionOf)
	slices.Sort(regions)
	return len(slices.Compact(regions))
}

// Validate checks structural consistency of the description.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("machine: empty name")
	}
	if m.Label == "" {
		return fmt.Errorf("machine %s: empty label", m.Name)
	}
	if m.Cores < 1 || m.Cores > MaxCores {
		return fmt.Errorf("machine %s: %d cores", m.Name, m.Cores)
	}
	if m.ClockHz <= 0 {
		return fmt.Errorf("machine %s: clock %v", m.Name, m.ClockHz)
	}
	if len(m.NUMARegionOf) != m.Cores {
		return fmt.Errorf("machine %s: NUMARegionOf has %d entries for %d cores",
			m.Name, len(m.NUMARegionOf), m.Cores)
	}
	for c, r := range m.NUMARegionOf {
		if r < 0 || r >= m.NUMARegions {
			return fmt.Errorf("machine %s: core %d in invalid NUMA region %d", m.Name, c, r)
		}
	}
	if populated := m.populatedRegions(); populated != m.NUMARegions {
		return fmt.Errorf("machine %s: only %d of %d NUMA regions populated",
			m.Name, populated, m.NUMARegions)
	}
	if m.ClusterSize < 1 {
		return fmt.Errorf("machine %s: cluster size %d", m.Name, m.ClusterSize)
	}
	if len(m.Caches) == 0 {
		return fmt.Errorf("machine %s: no cache levels", m.Name)
	}
	for _, cl := range m.Caches {
		if cl.SizeBytes <= 0 || cl.LineBytes <= 0 {
			return fmt.Errorf("machine %s: cache %s has non-positive geometry", m.Name, cl.Name)
		}
		if cl.BWPerCore <= 0 || cl.BWAggregate <= 0 {
			return fmt.Errorf("machine %s: cache %s has non-positive bandwidth", m.Name, cl.Name)
		}
	}
	if m.MemCtrlPerNUMA < 1 || m.CtrlBW <= 0 || m.CoreMemBW <= 0 {
		return fmt.Errorf("machine %s: invalid memory system", m.Name)
	}
	if m.ScalarFlopsPerCycle <= 0 || m.IssueWidth <= 0 {
		return fmt.Errorf("machine %s: invalid core rates", m.Name)
	}
	if m.Vector.ISA != NoVector && (m.Vector.WidthBits <= 0 || m.VectorFlopsPerCyclePerLane <= 0) {
		return fmt.Errorf("machine %s: vector unit without width/rate", m.Name)
	}
	if m.MLP < 1 {
		return fmt.Errorf("machine %s: MLP %v < 1", m.Name, m.MLP)
	}
	if m.JitterFullOccupancy < 1 {
		return fmt.Errorf("machine %s: jitter %v < 1", m.Name, m.JitterFullOccupancy)
	}
	if m.Sockets < 0 || m.Nodes < 0 {
		return fmt.Errorf("machine %s: negative socket/node count (%d sockets, %d nodes)",
			m.Name, m.Sockets, m.Nodes)
	}
	if pk := m.Packages(); pk > 1 {
		if m.Cores%pk != 0 {
			return fmt.Errorf("machine %s: %d cores do not divide across %d packages (%d nodes x %d sockets)",
				m.Name, m.Cores, pk, m.NodeCount(), m.SocketCount())
		}
		if m.NUMARegions%pk != 0 {
			return fmt.Errorf("machine %s: %d NUMA regions do not divide across %d packages",
				m.Name, m.NUMARegions, pk)
		}
		cp, rp := m.CoresPerSocket(), m.RegionsPerSocket()
		if m.ClusterSize > 1 && cp%m.ClusterSize != 0 {
			return fmt.Errorf("machine %s: cluster size %d straddles the %d-core socket boundary",
				m.Name, m.ClusterSize, cp)
		}
		for c, r := range m.NUMARegionOf {
			if r/rp != c/cp {
				return fmt.Errorf("machine %s: core %d (package %d) mapped to NUMA region %d of package %d",
					m.Name, c, c/cp, r, r/rp)
			}
		}
	}
	if m.SocketCount() > 1 && (m.XSocketBW <= 0 || m.XSocketLatencyNs <= 0) {
		return fmt.Errorf("machine %s: %d sockets without an inter-socket link (xsocket_bw, xsocket_latency_ns)",
			m.Name, m.SocketCount())
	}
	if m.NodeCount() > 1 && (m.NodeBW <= 0 || m.NodeLatencyNs <= 0) {
		return fmt.Errorf("machine %s: %d nodes without an inter-node link (node_bw, node_latency_ns)",
			m.Name, m.NodeCount())
	}
	return nil
}

func (m *Machine) String() string {
	topo := ""
	if m.NodeCount() > 1 {
		topo = fmt.Sprintf("%d nodes x ", m.NodeCount())
	}
	if m.SocketCount() > 1 {
		topo += fmt.Sprintf("%d sockets, ", m.SocketCount())
	} else if topo != "" {
		topo += "1 socket, "
	}
	return fmt.Sprintf("%s: %s%d cores @ %.2f GHz, %d NUMA regions, %s %d-bit",
		m.Name, topo, m.Cores, m.ClockHz/1e9, m.NUMARegions, m.Vector.ISA, m.Vector.WidthBits)
}
