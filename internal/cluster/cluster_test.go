package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/prec"
)

var nodeCounts = []int{1, 2, 4, 8, 16}

func TestNetworkPresets(t *testing.T) {
	eth, ib := Ethernet25G(), InfinibandHDR()
	if ib.LatencyNs >= eth.LatencyNs {
		t.Error("InfiniBand should have lower latency than Ethernet")
	}
	if ib.BW <= eth.BW {
		t.Error("InfiniBand should have higher bandwidth")
	}
	// Alpha-beta: tiny messages are latency-dominated, big ones BW-bound.
	small := eth.MsgTime(8)
	if small < eth.LatencyNs*1e-9 {
		t.Error("message time below pure latency")
	}
	big := eth.MsgTime(1 << 30)
	if big < float64(1<<30)/eth.BW {
		t.Error("large message faster than bandwidth allows")
	}
}

func TestStrongScalingStencil(t *testing.T) {
	c := New(machine.SG2042(), InfinibandHDR())
	pts, err := c.StrongScaleStencil(512, prec.F64, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(nodeCounts) {
		t.Fatalf("got %d points", len(pts))
	}
	// Compute time must shrink with nodes; total must improve from 1
	// node to some multi-node count.
	if pts[1].ComputeSec >= pts[0].ComputeSec {
		t.Error("2-node compute should be below 1-node")
	}
	if pts[2].Speedup <= 1.5 {
		t.Errorf("4-node speedup %.2f too low", pts[2].Speedup)
	}
	// Speedup grows monotonically with nodes (no scaling collapse in
	// this regime); cache effects may make it superlinear, but bounded.
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup < pts[i-1].Speedup {
			t.Errorf("speedup dropped from %.2f to %.2f at %d nodes",
				pts[i-1].Speedup, pts[i].Speedup, pts[i].Nodes)
		}
	}
	if pts[len(pts)-1].Efficiency > 2.5 {
		t.Errorf("efficiency %.2f implausibly superlinear", pts[len(pts)-1].Efficiency)
	}
	// Communication share grows with node count.
	last := pts[len(pts)-1]
	if last.CommSec/last.TotalSec < pts[1].CommSec/pts[1].TotalSec {
		t.Error("comm fraction should grow in strong scaling")
	}
	if pts[0].CommSec != 0 {
		t.Error("single node has no communication")
	}
}

func TestWeakScalingStencil(t *testing.T) {
	c := New(machine.SG2042(), InfinibandHDR())
	pts, err := c.WeakScaleStencil(128, prec.F64, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	// Weak scaling: per-step time grows only by the fixed comm cost.
	if pts[0].TotalSec <= 0 {
		t.Fatal("degenerate base time")
	}
	growth := pts[len(pts)-1].TotalSec / pts[0].TotalSec
	if growth > 1.5 {
		t.Errorf("weak-scaling time grew %.2fx; halo cost should be modest", growth)
	}
	// All multi-node efficiencies within (0, 1].
	for _, p := range pts[1:] {
		if p.Efficiency <= 0 || p.Efficiency > 1.001 {
			t.Errorf("node=%d: weak efficiency %v out of range", p.Nodes, p.Efficiency)
		}
	}
}

func TestNetworkQualityMatters(t *testing.T) {
	// The same sweep over Ethernet must lose more efficiency than over
	// InfiniBand — the paper's point that "networking performance would
	// also be driven by the auxiliaries coupled with the CPU".
	ib := New(machine.SG2042(), InfinibandHDR())
	eth := New(machine.SG2042(), Ethernet25G())
	ibPts, err := ib.StrongScaleStencil(512, prec.F64, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	ethPts, err := eth.StrongScaleStencil(512, prec.F64, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	last := len(nodeCounts) - 1
	if ethPts[last].Efficiency >= ibPts[last].Efficiency {
		t.Errorf("Ethernet efficiency %.3f should trail InfiniBand %.3f",
			ethPts[last].Efficiency, ibPts[last].Efficiency)
	}
}

func TestX86ClusterComparable(t *testing.T) {
	// The model composes with any node type: a Rome cluster must be
	// valid and faster per node than the SG2042 cluster.
	sg := New(machine.SG2042(), InfinibandHDR())
	rome := New(machine.EPYC7742(), InfinibandHDR())
	sgPts, err := sg.StrongScaleStencil(256, prec.F64, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	romePts, err := rome.StrongScaleStencil(256, prec.F64, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if romePts[0].ComputeSec >= sgPts[0].ComputeSec {
		t.Error("Rome node should out-compute an SG2042 node")
	}
}

func TestRejectsBadNodeCounts(t *testing.T) {
	c := New(machine.SG2042(), InfinibandHDR())
	if _, err := c.StrongScaleStencil(128, prec.F64, []int{0}); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestTextRender(t *testing.T) {
	c := New(machine.SG2042(), InfinibandHDR())
	pts, err := c.StrongScaleStencil(512, prec.F64, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	out := Text("Strong scaling, HEAT_3D, SG2042 + IB", pts)
	for _, want := range []string{"Nodes", "compute/step", "speedup", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestDualSocketNodePaysIntraNodeComm: a dual-socket node exchanges
// halo faces over its coherent link even on a single node, and the
// socket link's cost shows up in every point of the sweep; the
// single-socket sweeps are untouched by the topology model.
func TestDualSocketNodePaysIntraNodeComm(t *testing.T) {
	x2 := New(machine.SG2042x2(), InfinibandHDR())
	pts, err := x2.StrongScaleStencil(256, prec.F64, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].CommSec <= 0 {
		t.Error("dual-socket single node has zero comm time; the socket link is free")
	}
	single := New(machine.SG2042(), InfinibandHDR())
	sPts, err := single.StrongScaleStencil(256, prec.F64, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sPts[0].CommSec != 0 {
		t.Error("single-socket single node grew a comm term")
	}
	// At equal node counts the dual-socket board's comm per step is
	// strictly higher: network faces plus socket faces.
	for i := range pts {
		if pts[i].CommSec <= sPts[i].CommSec {
			t.Errorf("nodes=%d: dual-socket comm %v <= single-socket %v",
				pts[i].Nodes, pts[i].CommSec, sPts[i].CommSec)
		}
	}

	weak, err := x2.WeakScaleStencil(128, prec.F64, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if weak[0].CommSec <= 0 {
		t.Error("weak scaling on a dual-socket node has no intra-node comm")
	}
}

func TestSocketLink(t *testing.T) {
	if _, ok := SocketLink(machine.SG2042()); ok {
		t.Error("single-socket machine reports a socket link")
	}
	link, ok := SocketLink(machine.SG2042x2())
	if !ok || link.BW != machine.SG2042x2().XSocketBW || link.LatencyNs != machine.SG2042x2().XSocketLatencyNs {
		t.Errorf("SocketLink = %+v, %v", link, ok)
	}
}

// TestCubeRootFloorMatchesCbrt: the exact slab side equals the
// truncated math.Cbrt of the float64 slab volume it replaced over the
// strong-scaling slabs the cluster reports reach in practice — every
// grid up to 1024 (twice the default 512) over 1 to 256 nodes — and
// over every slab that is a perfect cube, k³ with the grid k·m split
// over m³ nodes, where a rounded cube root would fall one short, while
// n³ < 2⁵³ keeps the float64 volume exact. Past that, up to maxGrid,
// the side is checked against its definition, s³ ≤ ⌊n³/nodes⌋ < (s+1)³;
// a grid of maxGrid or more is refused.
func TestCubeRootFloorMatchesCbrt(t *testing.T) {
	old := func(n, nodes int) int {
		return int(math.Cbrt(float64(n) * float64(n) * float64(n) / float64(nodes)))
	}
	volume := func(n, nodes int) uint64 { return uint64(n) * uint64(n) * uint64(n) / uint64(nodes) }
	for n := 1; n <= 1024; n++ {
		for nodes := 1; nodes <= 256; nodes++ {
			if got, want := cubeRootFloor(volume(n, nodes)), old(n, nodes); got != want {
				t.Fatalf("grid %d over %d nodes: side %d, math.Cbrt gave %d", n, nodes, got, want)
			}
		}
	}
	for m := 1; m <= 16; m++ {
		for k := 1; k*m < maxGrid; k++ {
			n := k * m
			if got := cubeRootFloor(volume(n, m*m*m)); got != k {
				t.Fatalf("grid %d over %d nodes: side %d, want %d", n, m*m*m, got, k)
			}
			if n <= 208063 && old(n, m*m*m) != k { // 208063³ < 2⁵³
				t.Fatalf("grid %d over %d nodes: math.Cbrt gave %d, want %d", n, m*m*m, old(n, m*m*m), k)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i <= 10000; i++ {
		n := maxGrid - 1
		if i > 0 {
			n = 1 + rng.Intn(maxGrid-1)
		}
		v := volume(n, 1+rng.Intn(1<<16))
		s := uint64(cubeRootFloor(v))
		if s*s*s > v || (s+1)*(s+1)*(s+1) <= v {
			t.Fatalf("cubeRootFloor(%d) = %d, not the largest s with s³ ≤ v", v, s)
		}
	}
	c := New(machine.SG2042(), InfinibandHDR())
	if _, err := c.StrongScaleStencil(maxGrid, prec.F64, []int{1}); err == nil {
		t.Errorf("a %d grid was accepted", maxGrid)
	}
}
