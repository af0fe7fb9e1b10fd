// Package roofline derives roofline models from the machine
// descriptions: peak compute ceilings (scalar and vector, per
// precision), memory-bandwidth diagonals per hierarchy level, the ridge
// points where kernels switch from bandwidth- to compute-bound, and the
// placement of each RAJAPerf kernel on the plot by arithmetic
// intensity. It explains *why* the study's results look the way they do
// (most of the suite sits left of the C920's DRAM ridge, so vector
// width alone cannot close the x86 gap) and backs the best-practice
// discussion in Section 3.2 of the paper.
package roofline

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/prec"
)

// Ceiling is one horizontal line of the roofline plot.
type Ceiling struct {
	Name  string
	Flops float64 // flops/second
}

// Diagonal is one bandwidth slope of the plot.
type Diagonal struct {
	Name string
	BW   float64 // bytes/second
}

// Model is the roofline of one machine at one precision.
type Model struct {
	Machine   string
	Precision prec.Precision
	Ceilings  []Ceiling // descending: vector peak, scalar peak
	Diagonals []Diagonal
}

// New builds the roofline for a machine at a precision.
func New(m *machine.Machine, p prec.Precision) Model {
	mdl := Model{Machine: m.Label, Precision: p}
	if m.Vector.ISA != machine.NoVector {
		mdl.Ceilings = append(mdl.Ceilings, Ceiling{
			Name:  fmt.Sprintf("vector peak (%s)", m.Vector.ISA),
			Flops: m.PeakVectorFlops(p),
		})
	}
	mdl.Ceilings = append(mdl.Ceilings, Ceiling{Name: "scalar peak", Flops: m.PeakScalarFlops()})
	for i := range m.Caches {
		c := &m.Caches[i]
		mdl.Diagonals = append(mdl.Diagonals, Diagonal{
			Name: c.Name, BW: c.BWPerCore,
		})
	}
	mdl.Diagonals = append(mdl.Diagonals, Diagonal{Name: "DRAM", BW: m.CoreMemBW})
	return mdl
}

// Peak returns the top ceiling.
func (m Model) Peak() float64 {
	best := 0.0
	for _, c := range m.Ceilings {
		if c.Flops > best {
			best = c.Flops
		}
	}
	return best
}

// Ridge returns the arithmetic intensity (flops/byte) at which the
// named diagonal meets the top ceiling: kernels below it are
// bandwidth-bound from that level.
func (m Model) Ridge(diagonal string) (float64, error) {
	for _, d := range m.Diagonals {
		if d.Name == diagonal {
			return m.Peak() / d.BW, nil
		}
	}
	return 0, fmt.Errorf("roofline: no diagonal %q", diagonal)
}

// Attainable returns the roofline value at arithmetic intensity ai
// using the named diagonal: min(peak, ai*bw).
func (m Model) Attainable(ai float64, diagonal string) (float64, error) {
	for _, d := range m.Diagonals {
		if d.Name == diagonal {
			v := ai * d.BW
			if p := m.Peak(); v > p {
				v = p
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("roofline: no diagonal %q", diagonal)
}

// Point is one kernel placed on the roofline.
type Point struct {
	Kernel     string
	Class      kernels.Class
	AI         float64 // flops per byte of traffic
	Bound      string  // "memory" or "compute" against the DRAM diagonal
	Attainable float64
}

// Intensity computes a kernel's arithmetic intensity at a precision:
// flops per byte of per-iteration traffic.
func Intensity(spec kernels.Spec, p prec.Precision) float64 {
	bytes := float64((spec.Loop.LoadsPerIter()+spec.Loop.StoresPerIter())*float64(p.Bytes())) +
		float64((spec.Loop.IntLoadsPerIter()+spec.Loop.IntStoresPerIter())*8)
	if bytes == 0 {
		return 0
	}
	return spec.Loop.FlopsPerIter / bytes
}

// Place positions kernels on the machine's roofline against the DRAM
// diagonal, sorted by ascending intensity.
func Place(m *machine.Machine, p prec.Precision, specs []kernels.Spec) []Point {
	mdl := New(m, p)
	ridge, _ := mdl.Ridge("DRAM")
	out := make([]Point, 0, len(specs))
	for _, s := range specs {
		ai := Intensity(s, p)
		att, _ := mdl.Attainable(ai, "DRAM")
		bound := "memory"
		if ai >= ridge {
			bound = "compute"
		}
		out = append(out, Point{Kernel: s.Name, Class: s.Class, AI: ai,
			Bound: bound, Attainable: att})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AI < out[j].AI })
	return out
}

// Text renders the model and kernel placement as a fixed-width report.
func Text(m *machine.Machine, p prec.Precision, specs []kernels.Spec) string {
	mdl := New(m, p)
	var b strings.Builder
	fmt.Fprintf(&b, "Roofline: %s at %v\n", mdl.Machine, p)
	for _, c := range mdl.Ceilings {
		fmt.Fprintf(&b, "  ceiling  %-24s %8.1f GF/s\n", c.Name, c.Flops/1e9)
	}
	for _, d := range mdl.Diagonals {
		ridge, _ := mdl.Ridge(d.Name)
		fmt.Fprintf(&b, "  diagonal %-24s %8.1f GB/s (ridge at %.2f flops/byte)\n",
			d.Name, d.BW/1e9, ridge)
	}
	if len(specs) == 0 {
		return b.String()
	}
	b.WriteString("\n  kernels vs the DRAM diagonal:\n")
	for _, pt := range Place(m, p, specs) {
		fmt.Fprintf(&b, "    %-24s AI %6.3f  %-7s attainable %7.2f GF/s\n",
			pt.Kernel, pt.AI, pt.Bound, pt.Attainable/1e9)
	}
	return b.String()
}

// MemoryBoundShare returns the fraction of the given kernels that are
// memory-bound on the machine at the precision — the quantity that
// explains why wider vectors alone cannot close the SG2042-x86 gap.
func MemoryBoundShare(m *machine.Machine, p prec.Precision, specs []kernels.Spec) float64 {
	if len(specs) == 0 {
		return 0
	}
	n := 0
	for _, pt := range Place(m, p, specs) {
		if pt.Bound == "memory" {
			n++
		}
	}
	return float64(n) / float64(len(specs))
}
