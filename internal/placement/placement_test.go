package placement

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func mustMap(t *testing.T, m *machine.Machine, p Policy, threads int) []int {
	t.Helper()
	cores, err := Map(m, p, threads)
	if err != nil {
		t.Fatalf("Map(%v, %d): %v", p, threads, err)
	}
	return cores
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBlockIsIdentity(t *testing.T) {
	m := machine.SG2042()
	got := mustMap(t, m, Block, 6)
	if !equalInts(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("block map = %v", got)
	}
}

func TestCyclicMatchesPaperExamples(t *testing.T) {
	m := machine.SG2042()
	// "four threads are mapped to cores 0, 8, 32, and 40"
	got := mustMap(t, m, CyclicNUMA, 4)
	if !equalInts(got, []int{0, 8, 32, 40}) {
		t.Errorf("cyclic 4 threads = %v, want [0 8 32 40]", got)
	}
	// "eight threads are placed onto cores 0, 8, 32, 40, 1, 9, 33, and 41"
	got = mustMap(t, m, CyclicNUMA, 8)
	if !equalInts(got, []int{0, 8, 32, 40, 1, 9, 33, 41}) {
		t.Errorf("cyclic 8 threads = %v, want [0 8 32 40 1 9 33 41]", got)
	}
}

func TestClusterCyclicMatchesPaperExample(t *testing.T) {
	m := machine.SG2042()
	// "8 threads would be mapped to cores 0, 8, 32, 40, 16, 24, 48, and 56"
	got := mustMap(t, m, ClusterCyclic, 8)
	if !equalInts(got, []int{0, 8, 32, 40, 16, 24, 48, 56}) {
		t.Errorf("cluster-cyclic 8 threads = %v, want [0 8 32 40 16 24 48 56]", got)
	}
}

func TestClusterCyclicSpreadsL2(t *testing.T) {
	m := machine.SG2042()
	// With 16 threads, cluster-cyclic must hit 16 distinct clusters —
	// one thread per L2 — while block crams them into 4 clusters.
	cc := Analyze(m, mustMap(t, m, ClusterCyclic, 16))
	if cc.ClustersUsed != 16 || cc.MaxPerCluster != 1 {
		t.Errorf("cluster-cyclic 16: clusters=%d max=%d, want 16/1",
			cc.ClustersUsed, cc.MaxPerCluster)
	}
	bl := Analyze(m, mustMap(t, m, Block, 16))
	if bl.ClustersUsed != 4 || bl.MaxPerCluster != 4 {
		t.Errorf("block 16: clusters=%d max=%d, want 4/4", bl.ClustersUsed, bl.MaxPerCluster)
	}
}

func TestNUMASpread(t *testing.T) {
	m := machine.SG2042()
	// Block with 16 threads fills regions 0 and 1 (8 threads each: the
	// SG2042's regions interleave in blocks of 8 core ids).
	bl := Analyze(m, mustMap(t, m, Block, 16))
	if bl.NUMARegionsUsed != 2 {
		t.Errorf("block 16 uses %d NUMA regions, want 2", bl.NUMARegionsUsed)
	}
	// Cyclic with 16 spreads 4 threads into each of the 4 regions.
	cy := Analyze(m, mustMap(t, m, CyclicNUMA, 16))
	if cy.NUMARegionsUsed != 4 || cy.MaxPerNUMA != 4 {
		t.Errorf("cyclic 16: regions=%d max=%d, want 4/4", cy.NUMARegionsUsed, cy.MaxPerNUMA)
	}
	// Block with 4 threads sits entirely in region 0.
	bl4 := Analyze(m, mustMap(t, m, Block, 4))
	if bl4.NUMARegionsUsed != 1 {
		t.Errorf("block 4 uses %d regions, want 1", bl4.NUMARegionsUsed)
	}
}

func TestFullMachineUsesEveryCore(t *testing.T) {
	for _, m := range machine.All() {
		for _, p := range Policies {
			cores := mustMap(t, m, p, m.Cores)
			if !Unique(cores) {
				t.Errorf("%s/%v: duplicate cores in full mapping", m.Label, p)
			}
			sorted := SortedCopy(cores)
			for i, c := range sorted {
				if c != i {
					t.Errorf("%s/%v: full mapping is not a permutation (got %v)",
						m.Label, p, sorted)
					break
				}
			}
		}
	}
}

func TestMappingsArePartialPermutations(t *testing.T) {
	// Property: for every machine, policy and legal thread count, the
	// mapping has no duplicate cores and every core id is in range.
	machines := machine.All()
	f := func(mi, pi, ti uint8) bool {
		m := machines[int(mi)%len(machines)]
		p := Policies[int(pi)%len(Policies)]
		threads := 1 + int(ti)%m.Cores
		cores, err := Map(m, p, threads)
		if err != nil {
			return false
		}
		if len(cores) != threads || !Unique(cores) {
			return false
		}
		for _, c := range cores {
			if c < 0 || c >= m.Cores {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCyclicNeverWorseNUMASpreadThanBlock(t *testing.T) {
	// Property: at any thread count, cyclic placement uses at least as
	// many NUMA regions as block placement — the whole point of the
	// policy.
	m := machine.SG2042()
	for threads := 1; threads <= 64; threads++ {
		cy := Analyze(m, mustMap(t, m, CyclicNUMA, threads))
		bl := Analyze(m, mustMap(t, m, Block, threads))
		if cy.NUMARegionsUsed < bl.NUMARegionsUsed {
			t.Errorf("threads=%d: cyclic uses %d regions < block %d",
				threads, cy.NUMARegionsUsed, bl.NUMARegionsUsed)
		}
		cc := Analyze(m, mustMap(t, m, ClusterCyclic, threads))
		if cc.ClustersUsed < cy.ClustersUsed {
			t.Errorf("threads=%d: cluster-cyclic uses %d clusters < cyclic %d",
				threads, cc.ClustersUsed, cy.ClustersUsed)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	m := machine.SG2042()
	if _, err := Map(m, Block, 0); err == nil {
		t.Error("0 threads accepted")
	}
	if _, err := Map(m, Block, 65); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := Map(m, Policy(99), 4); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAnalyzeCounts(t *testing.T) {
	m := machine.SG2042()
	s := Analyze(m, []int{0, 1, 2, 3, 8})
	if s.ThreadsPerNUMA[0] != 4 || s.ThreadsPerNUMA[1] != 1 {
		t.Errorf("ThreadsPerNUMA = %v", s.ThreadsPerNUMA)
	}
	if s.ThreadsPerCluster[0] != 4 || s.ThreadsPerCluster[2] != 1 {
		t.Errorf("ThreadsPerCluster = %v", s.ThreadsPerCluster)
	}
	if s.MaxPerCluster != 4 || s.MaxPerNUMA != 4 {
		t.Errorf("max sharers wrong: %+v", s)
	}
}

func TestDescribe(t *testing.T) {
	if got := Describe([]int{0, 8, 32, 40}); got != "cores 0, 8, 32, 40" {
		t.Errorf("Describe = %q", got)
	}
}

func TestSingleNUMAMachinesDegenerate(t *testing.T) {
	// On a single-NUMA machine without clusters, cyclic == block.
	m := machine.Xeon6330()
	for threads := 1; threads <= m.Cores; threads += 5 {
		bl := mustMap(t, m, Block, threads)
		cy := mustMap(t, m, CyclicNUMA, threads)
		if !equalInts(bl, cy) {
			t.Errorf("threads=%d: cyclic %v != block %v on single-NUMA machine",
				threads, cy, bl)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range Policies {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
}

// Unique reports whether no core is used twice (every valid mapping on
// physical cores must be a partial permutation).
func Unique(cores []int) bool {
	seen := make(map[int]bool, len(cores))
	for _, c := range cores {
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// SortedCopy returns the mapping's cores in ascending order, for set
// comparisons.
func SortedCopy(cores []int) []int {
	out := append([]int(nil), cores...)
	sort.Ints(out)
	return out
}
