package machine

import (
	"fmt"
	"testing"

	"repro/internal/prec"
)

func TestAllPresetsValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestSG2042NUMALayout(t *testing.T) {
	// The paper: "cores 0-7 and 16-23 are in NUMA region 0, 8-15 and
	// 24-31 are in NUMA region 1, 32-39 and 48-55 are in NUMA region 2,
	// and 40-47 and 56-63 are in NUMA region 3".
	m := SG2042()
	want := map[int][]int{
		0: {0, 7, 16, 23},
		1: {8, 15, 24, 31},
		2: {32, 39, 48, 55},
		3: {40, 47, 56, 63},
	}
	for region, cores := range want {
		for _, c := range cores {
			if got := m.NUMARegionOf[c]; got != region {
				t.Errorf("core %d: region %d, want %d", c, got, region)
			}
		}
	}
	// Each region holds exactly 16 cores.
	for r := 0; r < 4; r++ {
		if n := len(m.CoresInNUMA(r)); n != 16 {
			t.Errorf("region %d has %d cores, want 16", r, n)
		}
	}
}

func TestSG2042Clusters(t *testing.T) {
	m := SG2042()
	if m.Clusters() != 16 {
		t.Fatalf("clusters = %d, want 16", m.Clusters())
	}
	// Cores 0-3 share a cluster; core 4 starts the next.
	if m.ClusterOf(0) != m.ClusterOf(3) {
		t.Error("cores 0 and 3 should share a cluster")
	}
	if m.ClusterOf(3) == m.ClusterOf(4) {
		t.Error("cores 3 and 4 must not share a cluster")
	}
	// NUMA region 0 contains clusters {0,1} (cores 0-7) and {4,5}
	// (cores 16-23).
	got := m.ClustersInNUMA(0)
	want := []int{0, 1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ClustersInNUMA(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClustersInNUMA(0) = %v, want %v", got, want)
		}
	}
}

func TestSG2042PaperFacts(t *testing.T) {
	m := SG2042()
	if m.Cores != 64 || m.ClockHz != 2.0e9 {
		t.Error("SG2042 is 64 cores at 2 GHz")
	}
	if m.Vector.ISA != RVV071 || m.Vector.WidthBits != 128 {
		t.Error("SG2042 provides RVV v0.7.1 at 128 bits")
	}
	if l2 := m.Cache("L2"); l2 == nil || l2.SizeBytes != 1*mb || l2.Shared != PerCluster {
		t.Error("SG2042 has 1MB L2 shared per 4-core cluster")
	}
	if l3 := m.Cache("L3"); l3 == nil || l3.SizeBytes != 64*mb || l3.Shared != PerSocket {
		t.Error("SG2042 has 64MB shared L3")
	}
	if m.NUMARegions != 4 || m.MemCtrlPerNUMA != 1 {
		t.Error("SG2042 has four NUMA regions with one controller each")
	}
}

func TestX86Table4Facts(t *testing.T) {
	cases := []struct {
		m     *Machine
		cores int
		clock float64
		isa   VectorISA
		numa  int
	}{
		{EPYC7742(), 64, 2.25e9, AVX2, 4},
		{XeonE52695(), 18, 2.1e9, AVX2, 1},
		{Xeon6330(), 28, 2.0e9, AVX512, 1},
		{XeonE52609(), 4, 2.4e9, AVX, 1},
	}
	for _, c := range cases {
		if c.m.Cores != c.cores {
			t.Errorf("%s: cores %d, want %d", c.m.Label, c.m.Cores, c.cores)
		}
		if c.m.ClockHz != c.clock {
			t.Errorf("%s: clock %v, want %v", c.m.Label, c.m.ClockHz, c.clock)
		}
		if c.m.Vector.ISA != c.isa {
			t.Errorf("%s: ISA %v, want %v", c.m.Label, c.m.Vector.ISA, c.isa)
		}
		if c.m.NUMARegions != c.numa {
			t.Errorf("%s: NUMA %d, want %d", c.m.Label, c.m.NUMARegions, c.numa)
		}
	}
	// Rome: "eight instead of four memory controllers".
	if r := EPYC7742(); r.MemCtrlPerNUMA*r.NUMARegions != 8 {
		t.Error("Rome should have eight memory controllers in total")
	}
}

func TestVisionFivePresets(t *testing.T) {
	v1, v2 := VisionFiveV1(), VisionFiveV2()
	if v1.Cores != 2 || v2.Cores != 4 {
		t.Error("V1 is dual-core, V2 quad-core")
	}
	if v1.ClockHz != 1.2e9 || v2.ClockHz != 1.5e9 {
		t.Error("V1 runs at 1.2GHz, V2 at 1.5GHz")
	}
	if v1.Vector.ISA != NoVector || v2.Vector.ISA != NoVector {
		t.Error("U74 has no vector extension")
	}
	// The V1's uncore must be distinctly weaker (the observed anomaly).
	if v1.CtrlBW >= v2.CtrlBW/2 {
		t.Error("V1 memory bandwidth should be far below V2")
	}
	if v1.MemLatencyNs <= v2.MemLatencyNs {
		t.Error("V1 memory latency should exceed V2")
	}
}

func TestVectorLanes(t *testing.T) {
	cases := []struct {
		v    Vector
		p    prec.Precision
		want int
	}{
		{Vector{ISA: RVV071, WidthBits: 128}, prec.F32, 4},
		{Vector{ISA: RVV071, WidthBits: 128}, prec.F64, 2},
		{Vector{ISA: AVX512, WidthBits: 512}, prec.F32, 16},
		{Vector{ISA: AVX512, WidthBits: 512}, prec.F64, 8},
		{Vector{ISA: NoVector}, prec.F32, 1},
	}
	for _, c := range cases {
		if got := c.v.Lanes(c.p); got != c.want {
			t.Errorf("lanes(%v,%v) = %d, want %d", c.v.ISA, c.p, got, c.want)
		}
	}
}

func TestPeakFlopsOrdering(t *testing.T) {
	// Peak vector FP64 should order: Icelake > Rome > Broadwell >
	// Sandybridge > C920 > U74, matching the hardware generations.
	ice := Xeon6330().PeakVectorFlops(prec.F64)
	rome := EPYC7742().PeakVectorFlops(prec.F64)
	bdw := XeonE52695().PeakVectorFlops(prec.F64)
	snb := XeonE52609().PeakVectorFlops(prec.F64)
	c920 := SG2042().PeakVectorFlops(prec.F64)
	u74 := VisionFiveV2().PeakVectorFlops(prec.F64)
	seq := []struct {
		name string
		v    float64
	}{
		{"Icelake", ice}, {"Rome", rome}, {"Broadwell", bdw},
		{"Sandybridge", snb}, {"C920", c920}, {"U74", u74},
	}
	for i := 1; i < len(seq); i++ {
		if seq[i-1].v <= seq[i].v {
			t.Errorf("peak FP64 ordering violated: %s (%.1f) <= %s (%.1f)",
				seq[i-1].name, seq[i-1].v/1e9, seq[i].name, seq[i].v/1e9)
		}
	}
	// FP32 vector peak doubles FP64 on every vector machine.
	for _, m := range All() {
		if m.Vector.ISA == NoVector {
			continue
		}
		r := m.PeakVectorFlops(prec.F32) / m.PeakVectorFlops(prec.F64)
		if r < 1.99 || r > 2.01 {
			t.Errorf("%s: FP32/FP64 peak ratio %v, want 2", m.Label, r)
		}
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	m := SG2042()
	m.NUMARegionOf[3] = 99
	if err := m.Validate(); err == nil {
		t.Error("invalid NUMA region accepted")
	}

	m = SG2042()
	m.NUMARegionOf = m.NUMARegionOf[:10]
	if err := m.Validate(); err == nil {
		t.Error("short NUMA map accepted")
	}

	m = SG2042()
	m.Caches = nil
	if err := m.Validate(); err == nil {
		t.Error("no caches accepted")
	}

	m = SG2042()
	m.MLP = 0
	if err := m.Validate(); err == nil {
		t.Error("MLP 0 accepted")
	}
}

// TestValidateNUMAErrorTexts: the NUMA checks name the same core,
// region and counts as always, whether the region count is below,
// at or far above the core count.
func TestValidateNUMAErrorTexts(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(m *Machine)
		want string
	}{
		{"region out of range", func(m *Machine) { m.NUMARegionOf[3] = 99 },
			"machine %s: core 3 in invalid NUMA region 99"},
		{"negative region", func(m *Machine) { m.NUMARegionOf[5] = -1 },
			"machine %s: core 5 in invalid NUMA region -1"},
		{"empty region", func(m *Machine) {
			for c, r := range m.NUMARegionOf {
				if r == 2 {
					m.NUMARegionOf[c] = 1
				}
			}
		}, "machine %s: only 3 of 4 NUMA regions populated"},
		{"more regions than cores", func(m *Machine) {
			m.NUMARegions = 100
			for c := range m.NUMARegionOf {
				m.NUMARegionOf[c] = c % 10
			}
		}, "machine %s: only 10 of 100 NUMA regions populated"},
		{"more regions than the stack set, fewer than cores", func(m *Machine) {
			wide, err := m.WithCores(256)
			if err != nil {
				t.Fatal(err)
			}
			*m = *wide
			m.NUMARegions = 100
			for c := range m.NUMARegionOf {
				m.NUMARegionOf[c] = c % 90
			}
		}, "machine %s: only 90 of 100 NUMA regions populated"},
		{"2^40 regions", func(m *Machine) { m.NUMARegions = 1 << 40 },
			"machine %s: only 4 of 1099511627776 NUMA regions populated"},
	} {
		m := SG2042()
		tc.edit(m)
		want := fmt.Sprintf(tc.want, m.Name)
		if err := m.Validate(); err == nil || err.Error() != want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, want)
		}
	}
}

// totalMemBW is the whole-machine DRAM bandwidth: every region's
// controllers together.
func totalMemBW(m *Machine) float64 {
	return m.NUMABandwidth() * float64(m.NUMARegions)
}

func TestBandwidthHelpers(t *testing.T) {
	m := SG2042()
	if m.NUMABandwidth() != m.CtrlBW {
		t.Error("SG2042 NUMA bandwidth should equal one controller")
	}
	if totalMemBW(m) != 4*m.CtrlBW {
		t.Error("SG2042 total bandwidth should be 4 controllers")
	}
	r := EPYC7742()
	if totalMemBW(r) <= totalMemBW(m) {
		t.Error("Rome should out-bandwidth the SG2042")
	}
}

func TestStringers(t *testing.T) {
	for _, m := range All() {
		if m.String() == "" {
			t.Errorf("%s: empty String()", m.Label)
		}
	}
	for _, d := range []Domain{PerCore, PerCluster, PerSocket} {
		if d.String() == "" {
			t.Error("empty domain string")
		}
	}
	for _, v := range []VectorISA{NoVector, RVV071, RVV10, AVX, AVX2, AVX512} {
		if v.String() == "" {
			t.Error("empty ISA string")
		}
	}
}
