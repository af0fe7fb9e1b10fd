// Package placement implements the three thread-to-core mapping policies
// Section 3.2 of the paper studies on the SG2042:
//
//   - Block: threads map contiguously to core ids (thread 0 -> core 0,
//     thread 1 -> core 1, ...), the policy behind Table 1.
//   - CyclicNUMA: threads cycle round the NUMA regions and are then
//     allocated contiguously within a region ("four threads are mapped
//     to cores 0, 8, 32, and 40 ... eight threads are placed onto cores
//     0, 8, 32, 40, 1, 9, 33, and 41"), the policy behind Table 2.
//   - ClusterCyclic: threads cycle round NUMA regions and, inside each
//     region, cycle across the four-core L2 clusters ("8 threads would
//     be mapped to cores 0, 8, 32, 40, 16, 24, 48, and 56"), the policy
//     behind Table 3.
//
// The package also derives the sharing structure a mapping induces — how
// many threads land in each NUMA region and each L2 cluster — which is
// what the performance model's contention terms consume.
package placement

import (
	"fmt"

	"repro/internal/machine"
)

// Policy selects a thread-to-core mapping strategy.
type Policy int

const (
	// Block allocates threads to contiguous core ids.
	Block Policy = iota
	// CyclicNUMA cycles threads across NUMA regions, contiguous within
	// a region.
	CyclicNUMA
	// ClusterCyclic cycles across NUMA regions and across the clusters
	// inside each region.
	ClusterCyclic
)

var policyNames = map[Policy]string{
	Block:         "block",
	CyclicNUMA:    "cyclic",
	ClusterCyclic: "cluster",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies lists all policies in the order the paper presents them.
var Policies = []Policy{Block, CyclicNUMA, ClusterCyclic}

// Map returns the core id each thread binds to (index = thread id).
// It errors if threads exceeds the machine's physical cores, mirroring
// the paper's practice of never oversubscribing ("we only execute on
// physical cores").
func Map(m *machine.Machine, p Policy, threads int) ([]int, error) {
	if threads < 1 {
		return nil, fmt.Errorf("placement: %d threads", threads)
	}
	if threads > m.Cores {
		return nil, fmt.Errorf("placement: %d threads exceed %d physical cores of %s",
			threads, m.Cores, m.Label)
	}
	switch p {
	case Block:
		return blockMap(threads), nil
	case CyclicNUMA:
		return cyclicMap(m, threads, false), nil
	case ClusterCyclic:
		return cyclicMap(m, threads, true), nil
	}
	return nil, fmt.Errorf("placement: unknown policy %d", int(p))
}

func blockMap(threads int) []int {
	cores := make([]int, threads)
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// regionOrder returns, for each NUMA region, the region's cores in the
// order the policy consumes them.
func regionOrder(m *machine.Machine, clusterAware bool) [][]int {
	orders := make([][]int, m.NUMARegions)
	for r := 0; r < m.NUMARegions; r++ {
		cores := m.CoresInNUMA(r)
		if !clusterAware {
			orders[r] = cores // ascending core id = contiguous in region
			continue
		}
		// Cluster-aware: visit the region's clusters round-robin,
		// interleaving the region's id-halves so consecutive visits hit
		// distinct L2s as far apart as possible. On the SG2042 a region
		// holds cores [8k..8k+7, 8k+16..8k+23]; interleaving the halves
		// yields cluster first-cores 0, 16, 4, 20 for region 0 —
		// reproducing the paper's example sequence.
		clusters := m.ClustersInNUMA(r)
		order := interleaveHalves(clusters)
		byCluster := make(map[int][]int)
		for _, c := range cores {
			cl := m.ClusterOf(c)
			byCluster[cl] = append(byCluster[cl], c)
		}
		var seq []int
		for depth := 0; len(seq) < len(cores); depth++ {
			for _, cl := range order {
				cs := byCluster[cl]
				if depth < len(cs) {
					seq = append(seq, cs[depth])
				}
			}
		}
		orders[r] = seq
	}
	return orders
}

// interleaveHalves reorders [a,b,c,d] to [a,c,b,d]: first element of each
// half alternating. For odd lengths the first half is the longer one.
func interleaveHalves(xs []int) []int {
	n := len(xs)
	if n <= 2 {
		return xs
	}
	h := (n + 1) / 2
	out := make([]int, 0, n)
	for i := 0; i < h; i++ {
		out = append(out, xs[i])
		if h+i < n {
			out = append(out, xs[h+i])
		}
	}
	return out
}

func cyclicMap(m *machine.Machine, threads int, clusterAware bool) []int {
	orders := regionOrder(m, clusterAware)
	next := make([]int, m.NUMARegions) // per-region cursor
	cores := make([]int, 0, threads)
	for len(cores) < threads {
		progressed := false
		for r := 0; r < m.NUMARegions && len(cores) < threads; r++ {
			if next[r] < len(orders[r]) {
				cores = append(cores, orders[r][next[r]])
				next[r]++
				progressed = true
			}
		}
		if !progressed {
			break // all cores consumed (threads <= m.Cores guarantees fill)
		}
	}
	return cores
}

// Sharing summarises the contention structure a mapping induces.
type Sharing struct {
	// ThreadsPerNUMA[r] is the number of threads bound to NUMA region r.
	ThreadsPerNUMA []int
	// ThreadsPerCluster[c] is the number of threads bound to cluster c.
	ThreadsPerCluster []int
	// MaxPerNUMA and MaxPerCluster are the worst-case sharer counts;
	// the bandwidth bottleneck follows the most crowded domain.
	MaxPerNUMA    int
	MaxPerCluster int
	// NUMARegionsUsed and ClustersUsed count the domains with >=1 thread.
	NUMARegionsUsed int
	ClustersUsed    int
	// ThreadsPerSocket[p] is the number of threads bound to CPU package
	// p (packages = nodes x sockets, contiguous core-id blocks). On a
	// single-socket single-node machine it has one entry equal to the
	// thread count.
	ThreadsPerSocket []int
	// MaxPerSocket and MaxPerNode are the worst-case sharer counts of
	// the package and node domains — what per-socket caches and
	// per-node memory systems are divided by.
	MaxPerSocket int
	MaxPerNode   int
	// SocketsUsed and NodesUsed count packages and nodes with >=1
	// thread; a mapping that crosses either boundary pays the
	// corresponding link.
	SocketsUsed int
	NodesUsed   int
	// MaxRegionsPerSocket is the largest number of NUMA regions in use
	// inside any one package (== NUMARegionsUsed on a single-package
	// machine) — the per-socket analogue the aggregate-bandwidth
	// scaling consumes.
	MaxRegionsPerSocket int
}

// Analyze derives the Sharing of a thread->core mapping.
func Analyze(m *machine.Machine, cores []int) Sharing {
	s := Sharing{
		ThreadsPerNUMA:    make([]int, m.NUMARegions),
		ThreadsPerCluster: make([]int, m.Clusters()),
		ThreadsPerSocket:  make([]int, m.Packages()),
	}
	threadsPerNode := make([]int, m.NodeCount())
	for _, c := range cores {
		s.ThreadsPerNUMA[m.NUMARegionOf[c]]++
		s.ThreadsPerCluster[m.ClusterOf(c)]++
		s.ThreadsPerSocket[m.SocketOf(c)]++
		threadsPerNode[m.NodeOf(c)]++
	}
	rp := m.RegionsPerSocket()
	regionsUsed := make([]int, m.Packages())
	for r, n := range s.ThreadsPerNUMA {
		if n > 0 {
			s.NUMARegionsUsed++
			regionsUsed[r/rp]++
		}
		if n > s.MaxPerNUMA {
			s.MaxPerNUMA = n
		}
	}
	for _, n := range s.ThreadsPerCluster {
		if n > 0 {
			s.ClustersUsed++
		}
		if n > s.MaxPerCluster {
			s.MaxPerCluster = n
		}
	}
	for _, n := range s.ThreadsPerSocket {
		if n > 0 {
			s.SocketsUsed++
		}
		if n > s.MaxPerSocket {
			s.MaxPerSocket = n
		}
	}
	for _, n := range threadsPerNode {
		if n > 0 {
			s.NodesUsed++
		}
		if n > s.MaxPerNode {
			s.MaxPerNode = n
		}
	}
	for _, n := range regionsUsed {
		if n > s.MaxRegionsPerSocket {
			s.MaxRegionsPerSocket = n
		}
	}
	return s
}

// Describe renders a mapping as the paper writes them: "cores 0, 8, 32, 40".
func Describe(cores []int) string {
	out := "cores "
	for i, c := range cores {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprint(c)
	}
	return out
}
