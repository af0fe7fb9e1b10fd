package machine_test

import (
	"fmt"

	"repro/internal/machine"
)

// ExampleRegistry shows the named-machine surface the HTTP API and the
// CLI share: the default registry serves the paper's presets plus the
// SG2044 and dual-socket SG2042x2, lookups are case-insensitive and
// answer under the canonical label, and an unknown label is a typed
// error that lists the known ones.
func ExampleRegistry() {
	reg := machine.DefaultRegistry()
	fmt.Println(len(reg.Labels()), "machines")

	sg, _ := reg.Resolve("sg2042")
	fmt.Println(sg.Label, "-", sg)

	_, err := reg.Resolve("SG9999")
	fmt.Println(err)
	// Output:
	// 9 machines
	// SG2042 - Sophon SG2042 (XuanTie C920): 64 cores @ 2.00 GHz, 4 NUMA regions, RVV v0.7.1 128-bit
	// unknown machine "SG9999" (want one of V1, V2, SG2042, Rome, Broadwell, Icelake, Sandybridge, SG2044, SG2042x2)
}

// ExampleFromJSON shows the JSON machine spec round trip: encode a
// preset, tweak it as data, decode it back — validation included.
func ExampleFromJSON() {
	spec, err := machine.ToJSON(machine.SG2042())
	if err != nil {
		panic(err)
	}
	m, err := machine.FromJSON(spec)
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Label, m.Cores, m.Vector.ISA)

	// Invalid specs fail at the boundary with a named cause.
	bad := []byte(`{"name": "broken", "label": "b", "cores": 0}`)
	if _, err := machine.FromJSON(bad); err != nil {
		fmt.Println("rejected:", err)
	}
	// Output:
	// SG2042 64 RVV v0.7.1
	// rejected: machine broken: 0 cores
}

// ExampleMachine_WithNUMARegions shows a what-if derivation: the
// SG2042's four single-controller NUMA regions fused into one region
// with all four controllers — total bandwidth conserved.
func ExampleMachine_WithNUMARegions() {
	fused, err := machine.SG2042().WithNUMARegions(1)
	if err != nil {
		panic(err)
	}
	fmt.Println(fused.Label)
	fmt.Println(fused.NUMARegions, "region,", fused.MemCtrlPerNUMA, "controllers")
	fmt.Printf("%.0f GB/s total (unchanged)\n", fused.NUMABandwidth()*float64(fused.NUMARegions)/1e9)
	// Output:
	// SG2042/n1
	// 1 region, 4 controllers
	// 48 GB/s total (unchanged)
}
