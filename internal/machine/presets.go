package machine

// The presets below encode the seven CPUs the paper evaluates
// (Section 2.1, Section 3.1 and Table 4). Cache sizes, core counts,
// clocks, NUMA layouts and vector ISAs are taken directly from the
// paper's text; bandwidths, latencies and per-cycle rates are effective
// (sustained) calibration values chosen so the performance model
// reproduces the paper's relative results — see docs/EXPERIMENTS.md for
// the paper-vs-model comparison. Where the paper's stated value differs from
// vendor datasheets (e.g. it describes the E5-2609's AVX registers as
// 128-bit and its L1D as 64 KB) we follow the paper, since the paper is
// what we reproduce.

const (
	kb = int64(1024)
	mb = 1024 * kb
	gb = 1e9 // bytes/second when used for bandwidth
)

// sg2042NUMARegion reproduces the unusual core-id mapping the paper
// discovered with lscpu: "cores 0-7 and 16-23 are in NUMA region 0,
// 8-15 and 24-31 are in NUMA region 1, 32-39 and 48-55 are in NUMA
// region 2, and 40-47 and 56-63 are in NUMA region 3".
func sg2042NUMARegion(core int) int {
	return 2*(core/32) + (core%16)/8
}

func numaMap(cores int, regionOf func(int) int) []int {
	m := make([]int, cores)
	for c := range m {
		m[c] = regionOf(c)
	}
	return m
}

func uniformNUMA(cores int) []int { return make([]int, cores) }

// SG2042 is the Sophon SG2042: 64 XuanTie C920 cores at 2 GHz in
// clusters of four sharing 1 MB L2, a 64 MB L3 system cache, four NUMA
// regions with one DDR4-3200 controller each, RVV v0.7.1 at 128 bits.
func SG2042() *Machine {
	return &Machine{
		Name:  "Sophon SG2042 (XuanTie C920)",
		Label: "SG2042",

		ClockHz:      2.0e9,
		Cores:        64,
		ClusterSize:  4,
		NUMARegions:  4,
		NUMARegionOf: numaMap(64, sg2042NUMARegion),

		MemCtrlPerNUMA: 1,
		CtrlBW:         12.0 * gb, // DDR4-3200 per controller, sustained
		CoreMemBW:      7.0 * gb,
		MemLatencyNs:   130,
		MLP:            6,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 64 * kb, LineBytes: 64, Assoc: 4, Shared: PerCore,
				BWPerCore: 24 * gb, BWAggregate: 24 * gb, LatencyNs: 1.5},
			{Name: "L2", SizeBytes: 1 * mb, LineBytes: 64, Assoc: 16, Shared: PerCluster,
				BWPerCore: 8 * gb, BWAggregate: 20 * gb, LatencyNs: 6},
			{Name: "L3", SizeBytes: 64 * mb, LineBytes: 64, Assoc: 16, Shared: PerSocket,
				BWPerCore: 8 * gb, BWAggregate: 40 * gb, LatencyNs: 35},
		},

		Vector: Vector{ISA: RVV071, WidthBits: 128, FMA: true, Pipes: 1},

		ScalarFlopsPerCycle:        1.6,
		VectorFlopsPerCyclePerLane: 1.4,
		IssueWidth:                 3,
		OutOfOrder:                 true,

		ForkJoinNsBase:      3000,
		ForkJoinNsPerThread: 100,
		StragglerNs:         200000,
		JitterFullOccupancy: 1.1,
	}
}

// VisionFiveV2 is the StarFive VisionFive V2 (JH7110): four SiFive U74
// cores at 1.5 GHz, 32 KB L1D per core, 2 MB L2 shared by all cores,
// RV64GC only (no vector extension).
func VisionFiveV2() *Machine {
	return &Machine{
		Name:  "StarFive VisionFive V2 (JH7110, SiFive U74)",
		Label: "V2",

		ClockHz:      1.5e9,
		Cores:        4,
		ClusterSize:  1,
		NUMARegions:  1,
		NUMARegionOf: uniformNUMA(4),

		MemCtrlPerNUMA: 1,
		CtrlBW:         2.8 * gb,
		CoreMemBW:      1.8 * gb,
		MemLatencyNs:   120,
		MLP:            1.4,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 32 * kb, LineBytes: 64, Assoc: 4, Shared: PerCore,
				BWPerCore: 12 * gb, BWAggregate: 12 * gb, LatencyNs: 2},
			{Name: "L2", SizeBytes: 2 * mb, LineBytes: 64, Assoc: 16, Shared: PerSocket,
				BWPerCore: 6 * gb, BWAggregate: 10 * gb, LatencyNs: 25},
		},

		Vector: Vector{ISA: NoVector},

		ScalarFlopsPerCycle:        1.0,
		VectorFlopsPerCyclePerLane: 0,
		IssueWidth:                 2,
		OutOfOrder:                 false,

		ForkJoinNsBase:      2500,
		ForkJoinNsPerThread: 400,
		StragglerNs:         60000,
		JitterFullOccupancy: 1.2,
	}
}

// VisionFiveV1 is the StarFive VisionFive V1 (JH7100): two U74 cores at
// 1.2 GHz. Same core as the V2 but a far weaker uncore — the JH7100's
// non-coherent, high-latency memory path is the accepted explanation for
// the "surprising" V1-vs-V2 gap the paper reports (it leaves the
// explanation to future work; we encode the slow uncore so the model
// reproduces the observed 3-6x FP64 gap).
func VisionFiveV1() *Machine {
	return &Machine{
		Name:  "StarFive VisionFive V1 (JH7100, SiFive U74)",
		Label: "V1",

		ClockHz:      1.2e9,
		Cores:        2,
		ClusterSize:  1,
		NUMARegions:  1,
		NUMARegionOf: uniformNUMA(2),

		MemCtrlPerNUMA: 1,
		CtrlBW:         0.85 * gb,
		CoreMemBW:      0.55 * gb,
		MemLatencyNs:   350,
		MLP:            1,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 32 * kb, LineBytes: 64, Assoc: 4, Shared: PerCore,
				BWPerCore: 9.6 * gb, BWAggregate: 9.6 * gb, LatencyNs: 2.5},
			{Name: "L2", SizeBytes: 2 * mb, LineBytes: 64, Assoc: 16, Shared: PerSocket,
				BWPerCore: 2.2 * gb, BWAggregate: 3.5 * gb, LatencyNs: 40},
		},

		Vector: Vector{ISA: NoVector},

		ScalarFlopsPerCycle:        1.0,
		VectorFlopsPerCyclePerLane: 0,
		IssueWidth:                 2,
		OutOfOrder:                 false,

		ForkJoinNsBase:      2500,
		ForkJoinNsPerThread: 400,
		StragglerNs:         60000,
		JitterFullOccupancy: 1.2,
	}
}

// EPYC7742 is the AMD Rome EPYC 7742 as configured in ARCHER2: 64 cores
// at 2.25 GHz, four NUMA regions of 16 cores (NPS4) served by eight
// memory controllers in total, 512 KB private L2, 16 MB L3 shared per
// four-core CCX, AVX2.
func EPYC7742() *Machine {
	return &Machine{
		Name:  "AMD Rome EPYC 7742",
		Label: "Rome",

		ClockHz:      2.25e9,
		Cores:        64,
		ClusterSize:  4, // CCX of 4 cores sharing an L3 slice
		NUMARegions:  4,
		NUMARegionOf: numaMap(64, func(c int) int { return c / 16 }),

		MemCtrlPerNUMA: 2, // eight controllers across four regions
		CtrlBW:         21.0 * gb,
		CoreMemBW:      22.0 * gb,
		MemLatencyNs:   105,
		MLP:            12,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 32 * kb, LineBytes: 64, Assoc: 8, Shared: PerCore,
				BWPerCore: 140 * gb, BWAggregate: 140 * gb, LatencyNs: 1.6},
			{Name: "L2", SizeBytes: 512 * kb, LineBytes: 64, Assoc: 8, Shared: PerCore,
				BWPerCore: 70 * gb, BWAggregate: 70 * gb, LatencyNs: 5.5},
			{Name: "L3", SizeBytes: 16 * mb, LineBytes: 64, Assoc: 16, Shared: PerCluster,
				BWPerCore: 38 * gb, BWAggregate: 110 * gb, LatencyNs: 17},
		},

		Vector: Vector{ISA: AVX2, WidthBits: 256, FMA: true, Pipes: 2},

		ScalarFlopsPerCycle:        3.2,
		VectorFlopsPerCyclePerLane: 3.2, // two 256-bit FMA pipes
		IssueWidth:                 4,
		OutOfOrder:                 true,

		ForkJoinNsBase:      1500,
		ForkJoinNsPerThread: 35,
		StragglerNs:         15000,
		JitterFullOccupancy: 1.12,
	}
}

// XeonE52695 is the Intel Broadwell Xeon E5-2695 in Cirrus: 18 cores at
// 2.1 GHz in a single NUMA region, 256 KB private L2, 45 MB shared L3,
// four memory controllers, AVX2.
func XeonE52695() *Machine {
	return &Machine{
		Name:  "Intel Broadwell Xeon E5-2695",
		Label: "Broadwell",

		ClockHz:      2.1e9,
		Cores:        18,
		ClusterSize:  1,
		NUMARegions:  1,
		NUMARegionOf: uniformNUMA(18),

		MemCtrlPerNUMA: 4,
		CtrlBW:         15.0 * gb,
		CoreMemBW:      16.0 * gb,
		MemLatencyNs:   95,
		MLP:            10,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 32 * kb, LineBytes: 64, Assoc: 8, Shared: PerCore,
				BWPerCore: 130 * gb, BWAggregate: 130 * gb, LatencyNs: 1.9},
			{Name: "L2", SizeBytes: 256 * kb, LineBytes: 64, Assoc: 8, Shared: PerCore,
				BWPerCore: 65 * gb, BWAggregate: 65 * gb, LatencyNs: 5.7},
			{Name: "L3", SizeBytes: 45 * mb, LineBytes: 64, Assoc: 20, Shared: PerSocket,
				BWPerCore: 30 * gb, BWAggregate: 150 * gb, LatencyNs: 21},
		},

		Vector: Vector{ISA: AVX2, WidthBits: 256, FMA: true, Pipes: 2},

		ScalarFlopsPerCycle:        3.0,
		VectorFlopsPerCyclePerLane: 3.0,
		IssueWidth:                 4,
		OutOfOrder:                 true,

		ForkJoinNsBase:      1500,
		ForkJoinNsPerThread: 35,
		StragglerNs:         12000,
		JitterFullOccupancy: 1.1,
	}
}

// Xeon6330 is the Intel Icelake Xeon 6330: 28 cores at 2.0 GHz in a
// single NUMA region with eight memory controllers, 48 KB L1D, 1 MB L2
// per core (as the paper states), 43 MB shared L3, AVX-512.
func Xeon6330() *Machine {
	return &Machine{
		Name:  "Intel Icelake Xeon 6330",
		Label: "Icelake",

		ClockHz:      2.0e9,
		Cores:        28,
		ClusterSize:  1,
		NUMARegions:  1,
		NUMARegionOf: uniformNUMA(28),

		MemCtrlPerNUMA: 8,
		CtrlBW:         19.0 * gb,
		CoreMemBW:      20.0 * gb,
		MemLatencyNs:   100,
		MLP:            12,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 48 * kb, LineBytes: 64, Assoc: 12, Shared: PerCore,
				BWPerCore: 200 * gb, BWAggregate: 200 * gb, LatencyNs: 2.0},
			{Name: "L2", SizeBytes: 1 * mb, LineBytes: 64, Assoc: 16, Shared: PerCore,
				BWPerCore: 90 * gb, BWAggregate: 90 * gb, LatencyNs: 6.5},
			{Name: "L3", SizeBytes: 43 * mb, LineBytes: 64, Assoc: 12, Shared: PerSocket,
				BWPerCore: 28 * gb, BWAggregate: 250 * gb, LatencyNs: 23},
		},

		Vector: Vector{ISA: AVX512, WidthBits: 512, FMA: true, Pipes: 2},

		ScalarFlopsPerCycle:        3.2,
		VectorFlopsPerCyclePerLane: 2.8, // AVX-512 licence downclocking folded in
		IssueWidth:                 5,
		OutOfOrder:                 true,

		ForkJoinNsBase:      1500,
		ForkJoinNsPerThread: 35,
		StragglerNs:         12000,
		JitterFullOccupancy: 1.1,
	}
}

// XeonE52609 is the Intel Sandybridge Xeon E5-2609 (2012): four cores at
// 2.40 GHz, AVX without FMA. Cache sizes and the 128-bit vector width
// follow the paper's description.
func XeonE52609() *Machine {
	return &Machine{
		Name:  "Intel Sandybridge Xeon E5-2609",
		Label: "Sandybridge",

		ClockHz:      2.4e9,
		Cores:        4,
		ClusterSize:  1,
		NUMARegions:  1,
		NUMARegionOf: uniformNUMA(4),

		MemCtrlPerNUMA: 4,
		CtrlBW:         5.5 * gb, // DDR3-1066 channels
		CoreMemBW:      7.0 * gb,
		MemLatencyNs:   90,
		MLP:            8,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 64 * kb, LineBytes: 64, Assoc: 8, Shared: PerCore,
				BWPerCore: 75 * gb, BWAggregate: 75 * gb, LatencyNs: 1.7},
			{Name: "L2", SizeBytes: 256 * kb, LineBytes: 64, Assoc: 8, Shared: PerCore,
				BWPerCore: 40 * gb, BWAggregate: 40 * gb, LatencyNs: 5},
			{Name: "L3", SizeBytes: 10 * mb, LineBytes: 64, Assoc: 20, Shared: PerSocket,
				BWPerCore: 22 * gb, BWAggregate: 40 * gb, LatencyNs: 26},
		},

		Vector: Vector{ISA: AVX, WidthBits: 128, FMA: false, Pipes: 2},

		ScalarFlopsPerCycle:        1.6,
		VectorFlopsPerCyclePerLane: 1.6, // separate add+mul ports, no FMA
		IssueWidth:                 4,
		OutOfOrder:                 true,

		ForkJoinNsBase:      1500,
		ForkJoinNsPerThread: 40,
		StragglerNs:         12000,
		JitterFullOccupancy: 1.1,
	}
}

// SG2044 is an SG2042 successor preset inspired by the follow-up
// evaluation "Is RISC-V ready for High Performance Computing? An
// evaluation of the Sophon SG2044" (arXiv:2508.13840): 64 XuanTie
// C920v2 cores at 2.6 GHz with ratified RVV v1.0 (still 128-bit
// registers), a DDR5 memory system that removes the SG2042's
// four-region NUMA split and multiplies its sustained bandwidth, and a
// markedly better-behaved uncore at full occupancy. It is not part of
// the source paper's experiments — All() stays the paper's seven — but
// it anchors the what-if sweep direction: the registry serves it and
// docs/EXPERIMENTS.md records which values are published topology and
// which are chosen sustained calibrations.
func SG2044() *Machine {
	return &Machine{
		Name:  "Sophon SG2044 (XuanTie C920v2)",
		Label: "SG2044",

		ClockHz:      2.6e9,
		Cores:        64,
		ClusterSize:  4,
		NUMARegions:  1,
		NUMARegionOf: uniformNUMA(64),

		MemCtrlPerNUMA: 4,
		CtrlBW:         28.0 * gb, // DDR5-5600 per controller, sustained
		CoreMemBW:      14.0 * gb,
		MemLatencyNs:   110,
		MLP:            8,

		Caches: []CacheLevel{
			{Name: "L1D", SizeBytes: 64 * kb, LineBytes: 64, Assoc: 4, Shared: PerCore,
				BWPerCore: 40 * gb, BWAggregate: 40 * gb, LatencyNs: 1.2},
			{Name: "L2", SizeBytes: 2 * mb, LineBytes: 64, Assoc: 16, Shared: PerCluster,
				BWPerCore: 16 * gb, BWAggregate: 40 * gb, LatencyNs: 5},
			{Name: "L3", SizeBytes: 64 * mb, LineBytes: 64, Assoc: 16, Shared: PerSocket,
				BWPerCore: 12 * gb, BWAggregate: 90 * gb, LatencyNs: 30},
		},

		Vector: Vector{ISA: RVV10, WidthBits: 128, FMA: true, Pipes: 2},

		ScalarFlopsPerCycle:        2.0,
		VectorFlopsPerCyclePerLane: 2.0,
		IssueWidth:                 4,
		OutOfOrder:                 true,

		ForkJoinNsBase:      2200,
		ForkJoinNsPerThread: 70,
		StragglerNs:         60000,
		JitterFullOccupancy: 1.06,
	}
}

// SG2042x2 is a dual-socket SG2042 board: two 64-core sockets joined by
// a coherent inter-socket link, the multi-socket high-core-count RISC-V
// regime of arXiv:2502.10320 that the source paper names as further
// work. Each socket keeps the SG2042's internal topology — including
// its unusual lscpu core-id mapping, replicated with a per-socket
// region offset — so cores 64-127 mirror cores 0-63 four NUMA regions
// up. The link's 24 GB/s bandwidth (half one socket's aggregate DRAM
// bandwidth) and 200 ns latency are calibration choices, not published
// measurements; docs/EXPERIMENTS.md records the split.
func SG2042x2() *Machine {
	m := SG2042()
	m.Name = "Dual-socket Sophon SG2042 board"
	m.Label = "SG2042x2"
	m.Sockets = 2
	m.Cores = 128
	m.NUMARegions = 8
	m.NUMARegionOf = numaMap(128, func(c int) int {
		return (c/64)*4 + sg2042NUMARegion(c%64)
	})
	m.XSocketBW = 24 * gb
	m.XSocketLatencyNs = 200
	return m
}

// All returns every preset, RISC-V machines first, in the order the
// paper introduces them.
func All() []*Machine {
	return []*Machine{
		VisionFiveV1(), VisionFiveV2(), SG2042(),
		EPYC7742(), XeonE52695(), Xeon6330(), XeonE52609(),
	}
}

// X86 returns the four x86 comparators of Table 4, in table order.
func X86() []*Machine {
	return []*Machine{EPYC7742(), XeonE52695(), Xeon6330(), XeonE52609()}
}
