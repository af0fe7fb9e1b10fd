// Package cluster models distributed-memory execution across multiple
// SG2042 (or x86) nodes — the paper's stated further work: "it would be
// instructive to explore distributed memory performance on systems
// built around the SG2042, especially the performance that can be
// delivered using MPI ... clusters of networked machines containing
// this processor".
//
// The model composes the single-node performance model
// (internal/perfmodel) with a network model (per-message latency plus
// bandwidth, the standard alpha-beta cost), and evaluates the archetypal
// MPI workload: a 3D halo-exchange stencil (nearest-neighbour
// communication, surface-to-volume scaling).
//
// Strong and weak scaling sweeps report speedup and parallel efficiency
// in the same form as the paper's Tables 1-3, extended across nodes.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/autovec"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// Network is an alpha-beta interconnect model.
type Network struct {
	Name      string
	LatencyNs float64 // per-message latency (alpha)
	BW        float64 // per-link bandwidth, bytes/second (beta)
}

// Standard interconnect presets.
func Ethernet25G() Network {
	return Network{Name: "25GbE RoCE", LatencyNs: 5000, BW: 3.0e9}
}

func InfinibandHDR() Network {
	return Network{Name: "InfiniBand HDR", LatencyNs: 1300, BW: 23.0e9}
}

// MsgTime is the alpha-beta cost of one message of n bytes.
func (nw Network) MsgTime(bytes float64) float64 {
	return float64(nw.LatencyNs*1e-9) + bytes/nw.BW
}

// SocketLink views a multi-socket node's coherent inter-socket link as
// an alpha-beta network, so intra-node cross-socket exchanges cost out
// through the same MsgTime formula as the cluster fabric. It returns
// false on single-socket nodes, which have no such link.
func SocketLink(m *machine.Machine) (Network, bool) {
	if m.SocketCount() <= 1 {
		return Network{}, false
	}
	return Network{Name: "socket link", LatencyNs: m.XSocketLatencyNs, BW: m.XSocketBW}, true
}

// Cluster is a homogeneous set of nodes.
type Cluster struct {
	Node  *machine.Machine
	Net   Network
	Model *perfmodel.Model
	// RanksPerNode is the MPI ranks per node (1 = one rank using all
	// cores with threads, the hybrid MPI+OpenMP setup HPC codes use).
	RanksPerNode int
}

// New builds a cluster of SG2042-style nodes over the network.
func New(node *machine.Machine, net Network) *Cluster {
	return &Cluster{Node: node, Net: net, Model: perfmodel.New(), RanksPerNode: 1}
}

// nodeConfig is the best-practice on-node configuration the paper
// establishes: all threads, cluster-aware cyclic placement.
func (c *Cluster) nodeConfig(p prec.Precision, problemN int) perfmodel.Config {
	threads := c.Node.Cores
	// Section 3.2: 32 threads beat 64 for memory-bound work on a C920
	// socket; on a multi-socket SG2042 board the cap scales with the
	// package count.
	if best := 32 * c.Node.Packages(); threads > best && strings.HasPrefix(c.Node.Label, "SG2042") {
		threads = best
	}
	return perfmodel.Config{
		Machine: c.Node, Threads: threads, Placement: placement.ClusterCyclic,
		Prec: p, Compiler: perfmodel.DefaultCompilerFor(c.Node), Mode: autovec.VLS,
		ProblemN: problemN,
	}
}

// StencilPoint is one row of a stencil scaling sweep.
type StencilPoint struct {
	Nodes      int
	ComputeSec float64
	CommSec    float64
	TotalSec   float64
	Speedup    float64
	Efficiency float64
}

const maxGrid = 1 << 21 // strong-scaling grid sides stay below it, so n³ < 2⁶³

// cubeRootFloor returns the largest integer s with s³ ≤ v, for v < 2⁶³,
// in exact integer arithmetic; math.Cbrt only seeds s.
func cubeRootFloor(v uint64) int {
	s := uint64(math.Cbrt(float64(v)))
	for (s+1)*(s+1)*(s+1) <= v {
		s++
	}
	for s*s*s > v {
		s--
	}
	return int(s)
}

// StrongScaleStencil evaluates strong scaling of the HEAT_3D halo
// stencil over the node counts: a fixed grid of side n is decomposed
// into slabs; each step exchanges two faces of n*n elements with
// neighbours and runs the local stencil.
func (c *Cluster) StrongScaleStencil(n int, p prec.Precision, nodeCounts []int) ([]StencilPoint, error) {
	spec, err := suite.ByName("HEAT_3D")
	if err != nil {
		return nil, err
	}
	if n >= maxGrid {
		return nil, fmt.Errorf("cluster: grid side %d too large (want below %d)", n, maxGrid)
	}
	var out []StencilPoint
	var t1 float64
	for _, nodes := range nodeCounts {
		if nodes < 1 {
			return nil, fmt.Errorf("cluster: %d nodes", nodes)
		}
		// Local slab: n/nodes planes of n*n (grid side shrinks in one
		// dimension only). The model's Iters/Footprint are cubic in
		// their size parameter, so convert the slab volume to an
		// equivalent cube side: s³ ≤ n³/nodes exactly when
		// s³ ≤ ⌊n³/nodes⌋.
		side := cubeRootFloor(uint64(n) * uint64(n) * uint64(n) / uint64(nodes))
		if side < 4 {
			side = 4
		}
		b, err := c.Model.KernelTime(spec, c.nodeConfig(p, side))
		if err != nil {
			return nil, err
		}
		compute := b.PerRep

		faceBytes := float64(n) * float64(n) * float64(p.Bytes())
		comm := 0.0
		if nodes > 1 {
			// Two faces exchanged per step (up and down neighbours),
			// send+receive overlap imperfectly: 2 messages.
			comm = 2 * c.Net.MsgTime(faceBytes)
		}
		// On a multi-socket node the slab is further decomposed across
		// the sockets: the same two-face exchange crosses the coherent
		// link even when the cluster is a single node.
		if link, ok := SocketLink(c.Node); ok {
			comm += 2 * link.MsgTime(faceBytes)
		}
		total := compute + comm
		pt := StencilPoint{Nodes: nodes, ComputeSec: compute, CommSec: comm, TotalSec: total}
		if nodes == nodeCounts[0] {
			t1 = total * float64(nodes) // normalise to 1-node equivalent
		}
		pt.Speedup = t1 / total / float64(nodeCounts[0])
		pt.Efficiency = pt.Speedup / float64(nodes)
		out = append(out, pt)
	}
	return out, nil
}

// WeakScaleStencil keeps the per-node grid fixed at side n and grows
// the global problem with the node count; perfect weak scaling keeps
// the time flat.
func (c *Cluster) WeakScaleStencil(n int, p prec.Precision, nodeCounts []int) ([]StencilPoint, error) {
	spec, err := suite.ByName("HEAT_3D")
	if err != nil {
		return nil, err
	}
	var out []StencilPoint
	var t1 float64
	for _, nodes := range nodeCounts {
		b, err := c.Model.KernelTime(spec, c.nodeConfig(p, n))
		if err != nil {
			return nil, err
		}
		compute := b.PerRep
		faceBytes := float64(n) * float64(n) * float64(p.Bytes())
		comm := 0.0
		if nodes > 1 {
			comm = 2 * c.Net.MsgTime(faceBytes)
		}
		if link, ok := SocketLink(c.Node); ok {
			comm += 2 * link.MsgTime(faceBytes)
		}
		total := compute + comm
		if nodes == nodeCounts[0] {
			t1 = total
		}
		out = append(out, StencilPoint{
			Nodes: nodes, ComputeSec: compute, CommSec: comm, TotalSec: total,
			Speedup:    t1 / total * float64(nodes) / float64(nodeCounts[0]),
			Efficiency: t1 / total,
		})
	}
	return out, nil
}

// Text renders a stencil sweep like the paper's scaling tables.
func Text(title string, pts []StencilPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %10s %6s\n",
		"Nodes", "compute/step", "comms/step", "total/step", "speedup", "PE")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-8d %12.3fms %12.3fms %12.3fms %10.2f %6.2f\n",
			pt.Nodes, pt.ComputeSec*1e3, pt.CommSec*1e3, pt.TotalSec*1e3,
			pt.Speedup, pt.Efficiency)
	}
	return b.String()
}
