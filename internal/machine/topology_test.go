package machine

import (
	"reflect"
	"strings"
	"testing"
)

// TestRegistryPresetsGoldenRoundTrip is the golden-master contract for
// the machine spec: every registry preset — including the multi-socket
// SG2042x2 — survives ToJSON → FromJSON losslessly, with the
// cache-keying Fingerprint unchanged. Spec drift that drops or mangles
// a field fails here before it can poison the suite cache.
func TestRegistryPresetsGoldenRoundTrip(t *testing.T) {
	presets := DefaultRegistry().Machines()
	if len(presets) == 0 {
		t.Fatal("empty default registry")
	}
	for _, m := range presets {
		data, err := ToJSON(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Label, err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Label, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Errorf("%s: JSON round trip is lossy:\n got %+v\nwant %+v", m.Label, back, m)
		}
		if m.Fingerprint() != back.Fingerprint() {
			t.Errorf("%s: fingerprint changed across the JSON round trip", m.Label)
		}
	}
}

// TestSingleSocketSpecsStayImplicit: presets that predate the topology
// fields must encode without them (omitempty), so their committed JSON
// and any spec a client captured before this refactor stay byte-valid
// and byte-identical.
func TestSingleSocketSpecsStayImplicit(t *testing.T) {
	data, err := ToJSON(SG2042())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"sockets", "nodes", "xsocket_bw", "xsocket_latency_ns", "node_bw", "node_latency_ns"} {
		if strings.Contains(string(data), `"`+field+`"`) {
			t.Errorf("single-socket SG2042 spec leaks %q:\n%s", field, data)
		}
	}
}

func TestSG2042x2Preset(t *testing.T) {
	m := SG2042x2()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.SocketCount() != 2 || m.NodeCount() != 1 || m.Packages() != 2 {
		t.Fatalf("topology = %d sockets x %d nodes", m.SocketCount(), m.NodeCount())
	}
	if m.Cores != 128 || m.NUMARegions != 8 {
		t.Fatalf("cores = %d, regions = %d", m.Cores, m.NUMARegions)
	}
	if m.CoresPerSocket() != 64 || m.RegionsPerSocket() != 4 {
		t.Fatalf("per-socket: %d cores, %d regions", m.CoresPerSocket(), m.RegionsPerSocket())
	}
	// Each socket keeps the SG2042's lscpu core-id mapping, region
	// indices offset by the socket's four regions.
	sg := SG2042()
	for c := 0; c < 128; c++ {
		want := (c/64)*4 + sg.NUMARegionOf[c%64]
		if m.NUMARegionOf[c] != want {
			t.Fatalf("core %d in region %d, want %d", c, m.NUMARegionOf[c], want)
		}
	}
	if m.SocketOf(63) != 0 || m.SocketOf(64) != 1 || m.NodeOf(127) != 0 {
		t.Error("socket/node-of-core mapping wrong at the boundary")
	}
	if m.XSocketBW <= 0 || m.XSocketLatencyNs <= 0 {
		t.Error("dual-socket preset must carry an inter-socket link")
	}
	// Twice the sockets, twice the controllers, twice the DRAM bandwidth.
	if got, want := totalMemBW(m), 2*totalMemBW(sg); got != want {
		t.Errorf("total bandwidth = %v, want %v", got, want)
	}
	if s := m.String(); !strings.Contains(s, "2 sockets") {
		t.Errorf("String() hides the socket count: %q", s)
	}
	if s := sg.String(); strings.Contains(s, "socket") {
		t.Errorf("single-socket String() changed: %q", s)
	}
}

func TestWithSockets(t *testing.T) {
	base := SG2042()
	v, err := base.WithSockets(2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Label != "SG2042/s2" {
		t.Errorf("label = %q", v.Label)
	}
	if v.Cores != 128 || v.NUMARegions != 8 || v.SocketCount() != 2 {
		t.Errorf("got %d cores, %d regions, %d sockets", v.Cores, v.NUMARegions, v.SocketCount())
	}
	// Default link: half one socket's DRAM bandwidth, 1.5x its latency.
	if v.XSocketBW != 0.5*totalMemBW(base) {
		t.Errorf("default XSocketBW = %v, want %v", v.XSocketBW, 0.5*totalMemBW(base))
	}
	if v.XSocketLatencyNs != 1.5*base.MemLatencyNs {
		t.Errorf("default XSocketLatencyNs = %v", v.XSocketLatencyNs)
	}
	// Replicated region map matches the hand-written dual-socket preset.
	if !reflect.DeepEqual(v.NUMARegionOf, SG2042x2().NUMARegionOf) {
		t.Error("WithSockets(2) region map differs from the SG2042x2 preset's")
	}
	// An explicit link on the base is kept, not overwritten.
	x2, err := SG2042x2().WithSockets(4)
	if err != nil {
		t.Fatal(err)
	}
	if x2.XSocketBW != SG2042x2().XSocketBW || x2.Cores != 256 {
		t.Errorf("WithSockets(4) on SG2042x2: bw=%v cores=%d", x2.XSocketBW, x2.Cores)
	}
	// Deriving back down to one socket restores a valid single socket.
	one, err := SG2042x2().WithSockets(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Cores != 64 || one.NUMARegions != 4 || one.Packages() != 1 {
		t.Errorf("WithSockets(1): %d cores, %d regions", one.Cores, one.NUMARegions)
	}
	if _, err := base.WithSockets(0); err == nil {
		t.Error("WithSockets(0) accepted")
	}
	if _, err := base.WithSockets(1 << 20); err == nil {
		t.Error("WithSockets beyond MaxCores accepted")
	}
	if base.Cores != 64 || base.Sockets != 0 {
		t.Error("WithSockets mutated the receiver")
	}
}

func TestWithNodes(t *testing.T) {
	base := SG2042()
	v, err := base.WithNodes(4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Label != "SG2042/node4" {
		t.Errorf("label = %q", v.Label)
	}
	if v.Cores != 256 || v.NUMARegions != 16 || v.NodeCount() != 4 || v.Packages() != 4 {
		t.Errorf("got %d cores, %d regions, %d nodes", v.Cores, v.NUMARegions, v.NodeCount())
	}
	if v.NodeBW != defaultNodeBW || v.NodeLatencyNs != defaultNodeLatencyNs {
		t.Errorf("default node link = %v B/s, %v ns", v.NodeBW, v.NodeLatencyNs)
	}
	if v.NodeOf(63) != 0 || v.NodeOf(64) != 1 || v.SocketOf(255) != 3 {
		t.Error("node-of-core mapping wrong at the boundary")
	}
	// Nodes compose with sockets: each node keeps the dual-socket layout.
	both, err := SG2042x2().WithNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if both.Cores != 256 || both.NUMARegions != 16 || both.Packages() != 4 {
		t.Errorf("dual-socket x 2 nodes: %d cores, %d regions, %d packages",
			both.Cores, both.NUMARegions, both.Packages())
	}
	if both.SocketOf(64) != 1 || both.NodeOf(64) != 0 || both.NodeOf(128) != 1 {
		t.Error("socket/node indices wrong on the fused dual-socket machine")
	}
	if _, err := base.WithNodes(0); err == nil {
		t.Error("WithNodes(0) accepted")
	}
	if _, err := base.WithNodes(1 << 20); err == nil {
		t.Error("WithNodes beyond MaxCores accepted")
	}
	if base.Nodes != 0 {
		t.Error("WithNodes mutated the receiver")
	}
}

// TestMultiPackageDerivationsGuarded: the single-axis what-ifs must not
// silently break socket alignment on a multi-package base.
func TestMultiPackageDerivationsGuarded(t *testing.T) {
	x2 := SG2042x2()
	if _, err := x2.WithCores(65); err == nil {
		t.Error("WithCores(65) on a dual-socket machine accepted")
	}
	if _, err := x2.WithNUMARegions(3); err == nil {
		t.Error("WithNUMARegions(3) on a dual-socket machine accepted")
	}
	// Even splits stay fine and stay aligned.
	v, err := x2.WithCores(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Errorf("WithCores(32) on dual-socket: %v", err)
	}
}

// TestValidateTopology: the new topology invariants fail with messages
// naming the problem.
func TestValidateTopology(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Machine)
		wantErr string
	}{
		{"negative sockets", func(m *Machine) { m.Sockets = -1 }, "negative socket/node count"},
		{"cores not divisible", func(m *Machine) { m.Sockets = 3 }, "do not divide across"},
		{"regions not divisible", func(m *Machine) { m.Sockets = 8 }, "NUMA regions do not divide"},
		{"cluster straddles socket", func(m *Machine) {
			m.Sockets = 32
			m.NUMARegions = 32
			m.ClusterSize = 4
			m.NUMARegionOf = numaMap(64, func(c int) int { return c / 2 })
		}, "straddles"},
		{"map crosses socket", func(m *Machine) {
			m.Sockets = 2
			m.NUMARegionOf = numaMap(64, func(c int) int { return c % 4 }) // cyclic: regions span sockets
		}, "mapped to NUMA region"},
		{"missing socket link", func(m *Machine) {
			m.Sockets = 2
			m.NUMARegions = 2
			m.NUMARegionOf = numaMap(64, func(c int) int { return c / 32 })
			m.XSocketBW, m.XSocketLatencyNs = 0, 0
		}, "without an inter-socket link"},
		{"missing node link", func(m *Machine) {
			m.Nodes = 2
			m.NUMARegions = 2
			m.NUMARegionOf = numaMap(64, func(c int) int { return c / 32 })
		}, "without an inter-node link"},
	}
	for _, tc := range cases {
		m := SG2042()
		m.XSocketBW, m.XSocketLatencyNs = 24e9, 200
		tc.mutate(m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
