// What-if hardware sweeps: the machine registry, the derivation
// helpers, and the Sweep API, end to end.
//
// The paper evaluates seven fixed CPUs; its follow-ups (the SG2044
// evaluation, the multi-socket study) ask the parametric questions —
// what happens to these kernels when the vector registers widen, the
// NUMA layout fuses, or the core count grows? This example asks all
// three of the study engine, sharing one memoized suite cache across
// every sweep point.
//
// Run it:
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// 1. The machine registry: the paper's presets plus the SG2044 and SG2042x2.
	reg := repro.DefaultMachineRegistry()
	fmt.Println("Registered machines:")
	for _, m := range reg.Machines() {
		fmt.Printf("  %-12s %s\n", m.Label, m)
	}

	eng := repro.NewEngine(repro.Options{Parallel: 8})

	// 2. The SG2044 question in model form: what does the SG2042 gain
	// from wider vectors alone, on one core? (Answer: almost nothing —
	// the suite is bandwidth-bound, which is why the real SG2044's wins
	// came from its memory system.)
	sg, _ := reg.Get("SG2042")
	out, err := eng.SweepFormat(repro.SweepSpec{
		Base: sg, Axis: repro.SweepVector, Values: []float64{128, 256, 512},
		Threads: 1, Prec: repro.F64,
	}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(out)

	// 3. The NUMA what-if: fuse the SG2042's four single-controller
	// regions into one (total bandwidth conserved) and run 16 threads
	// under block placement — the setting where the paper's Table 1
	// suffers, because block placement crowds all threads into a single
	// region's controller. A fused layout hands them the whole socket.
	// (The 4-region point is *slower* than stock: derivation rebuilds
	// the NUMA map as contiguous blocks, and the SG2042's real
	// interleaved core-id map — the lscpu surprise the paper reports —
	// spreads a 16-thread block across two regions, not one.)
	out, err = eng.SweepFormat(repro.SweepSpec{
		Base: sg, Axis: repro.SweepNUMA, Values: []float64{1, 2, 4},
		Threads: 16, Prec: repro.F32,
	}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)

	// 4. Custom hardware as data: round the SG2044 through its JSON
	// spec (the exact bytes GET /v1/machines/SG2044 serves), halve its
	// clock, and sweep its core count. Any client of the HTTP API can
	// POST the same spec to /v1/sweep.
	spec, err := repro.MachineJSON(repro.SG2044())
	if err != nil {
		log.Fatal(err)
	}
	custom, err := repro.MachineFromJSON(spec)
	if err != nil {
		log.Fatal(err)
	}
	custom.ClockHz /= 2
	custom.Label = "SG2044-lp" // a low-power what-if
	out, err = eng.SweepFormat(repro.SweepSpec{
		Base: custom, Axis: repro.SweepCores, Values: []float64{16, 32, 64},
		Prec: repro.F32,
	}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)

	hits, misses := eng.CacheStats()
	fmt.Printf("engine cache: %d hits, %d misses\n", hits, misses)
}
