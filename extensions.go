package repro

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/prec"
	"repro/internal/roofline"
	"repro/internal/suite"
)

// RooflineReport renders the roofline model of a machine at a precision
// with all 64 kernels placed on it. The label resolves through the
// default machine registry, case-insensitively, so every registry
// machine has a roofline (the paper's seven CPUs, the SG2044 and the
// dual-socket SG2042x2); an unresolvable label yields an
// *UnknownMachineError.
func RooflineReport(label string, p Precision) (string, error) {
	m, err := DefaultMachineRegistry().Resolve(label)
	if err != nil {
		return "", err
	}
	return roofline.Text(m, p, suite.All()), nil
}

// MemoryBoundShare returns the fraction of the suite that is
// memory-bound on a machine at a precision — the roofline quantity that
// explains the structure of the paper's results. Labels resolve as in
// RooflineReport.
func MemoryBoundShare(label string, p Precision) (float64, error) {
	m, err := DefaultMachineRegistry().Resolve(label)
	if err != nil {
		return 0, err
	}
	return roofline.MemoryBoundShare(m, p, suite.All()), nil
}

// ClusterScalingReport models the paper's proposed further work: MPI
// scaling of SG2042 nodes. It renders strong- and weak-scaling sweeps
// of the HEAT_3D halo-exchange stencil across the node counts on the
// named interconnect ("ib" for InfiniBand HDR, "eth" for 25GbE). Node
// labels resolve through the default machine registry (so the SG2044
// and the dual-socket SG2042x2 serve alongside the paper presets); an
// unresolvable label yields an *UnknownMachineError, the same typed
// path campaigns use, so the HTTP layer can 404 it apart from the
// 400-class validation errors. sockets > 0 derives a sockets-per-node
// what-if variant of the named preset (WithSockets); 0 keeps the
// preset's own topology. Multi-socket nodes pay the coherent
// inter-socket link inside every point, composing node-level MPI with
// socket-level NUMA.
func ClusterScalingReport(nodeLabel, network string, grid int, p Precision, nodes []int, sockets int) (string, error) {
	m, err := DefaultMachineRegistry().Resolve(nodeLabel)
	if err != nil {
		return "", err
	}
	if sockets < 0 {
		return "", fmt.Errorf("repro: %d sockets per node", sockets)
	}
	if sockets > 0 {
		if m, err = m.WithSockets(sockets); err != nil {
			return "", err
		}
	}
	var net cluster.Network
	switch strings.ToLower(network) {
	case "ib", "infiniband":
		net = cluster.InfinibandHDR()
	case "eth", "ethernet":
		net = cluster.Ethernet25G()
	default:
		return "", fmt.Errorf("repro: unknown network %q (want ib or eth)", network)
	}
	if grid <= 0 {
		grid = 512
	}
	if len(nodes) == 0 {
		nodes = []int{1, 2, 4, 8, 16, 32}
	}
	c := cluster.New(m, net)
	strong, err := c.StrongScaleStencil(grid, prec.Precision(p), nodes)
	if err != nil {
		return "", err
	}
	weak, err := c.WeakScaleStencil(grid/2, prec.Precision(p), nodes)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(cluster.Text(fmt.Sprintf(
		"Strong scaling: HEAT_3D %d^3, %s nodes over %s", grid, m.Label, net.Name), strong))
	b.WriteString("\n")
	b.WriteString(cluster.Text(fmt.Sprintf(
		"Weak scaling: HEAT_3D %d^3 per node, %s nodes over %s", grid/2, m.Label, net.Name), weak))
	return b.String(), nil
}
