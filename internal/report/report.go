// Package report renders the study's results in the same shape the
// paper presents them: Tables 1-3 as speedup/parallel-efficiency grids,
// Table 4 as the x86 summary, and the figures as per-class (or
// per-kernel) bar+whisker rows on the paper's signed "times faster /
// slower" scale. Renderers emit fixed-width text and CSV.
package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// FigureText renders a class-level figure: one block per series, one row
// per class with the signed mean and [min,max] whiskers.
func FigureText(fig core.Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fig.Title)
	fmt.Fprintf(&b, "(0 = same performance as %s; +N = N times faster; -N = N times slower)\n\n",
		fig.Baseline)
	for _, s := range fig.Series {
		fmt.Fprintf(&b, "%s\n", s.Label)
		for _, c := range kernels.Classes {
			sum, ok := s.ByClass[c]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-10s %s %7.2f  [%6.2f, %6.2f]\n",
				c.String(), bar(sum.SignedMean()), sum.SignedMean(),
				sum.SignedMin(), sum.SignedMax())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// bar draws a small signed ASCII bar for a value on the figure scale.
func bar(v float64) string {
	const width = 16
	const scale = 2.0 // characters per unit
	n := int(v * scale)
	if n > width {
		n = width
	}
	if n < -width {
		n = -width
	}
	left := strings.Repeat(" ", width)
	right := strings.Repeat(" ", width)
	if n >= 0 {
		right = strings.Repeat("#", n) + strings.Repeat(" ", width-n)
	} else {
		left = strings.Repeat(" ", width+n) + strings.Repeat("#", -n)
	}
	return left + "|" + right
}

// FigureCSV renders a class-level figure as CSV rows:
// series,class,mean_ratio,min_ratio,max_ratio.
func FigureCSV(fig core.Figure) string {
	var b strings.Builder
	b.WriteString("series,class,mean_ratio,min_ratio,max_ratio\n")
	for _, s := range fig.Series {
		for _, c := range kernels.Classes {
			sum, ok := s.ByClass[c]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s,%s,%.4f,%.4f,%.4f\n", s.Label, c, sum.Mean, sum.Min, sum.Max)
		}
	}
	return b.String()
}

// ScalingTableText renders Tables 1-3 in the paper's layout: one row per
// thread count, Speedup and PE columns per class.
func ScalingTableText(t core.ScalingTableResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", t.Title)
	fmt.Fprintf(&b, "%-8s", "Threads")
	for _, c := range kernels.Classes {
		fmt.Fprintf(&b, "%12s", c.String())
		fmt.Fprintf(&b, "%8s", "PE")
	}
	b.WriteString("\n")
	for _, threads := range t.Threads {
		row, ok := t.Cells[threads]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-8d", threads)
		for _, c := range kernels.Classes {
			cell := row[c]
			fmt.Fprintf(&b, "%12.2f%8.2f", cell.Speedup, cell.PE)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ScalingTableCSV renders a scaling table as CSV:
// threads,class,speedup,parallel_efficiency.
func ScalingTableCSV(t core.ScalingTableResult) string {
	var b strings.Builder
	b.WriteString("threads,class,speedup,parallel_efficiency\n")
	for _, threads := range t.Threads {
		row, ok := t.Cells[threads]
		if !ok {
			continue
		}
		for _, c := range kernels.Classes {
			cell := row[c]
			fmt.Fprintf(&b, "%d,%s,%.4f,%.4f\n", threads, c, cell.Speedup, cell.PE)
		}
	}
	return b.String()
}

// KernelBarsText renders Figure 3: one row per kernel, one signed value
// per series.
func KernelBarsText(kb core.KernelBars) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", kb.Title)
	fmt.Fprintf(&b, "(0 = same performance as %s; +N = N times faster; -N = N times slower)\n\n",
		kb.Baseline)
	fmt.Fprintf(&b, "%-16s", "Kernel")
	for _, s := range kb.Series {
		fmt.Fprintf(&b, "%12s", s.Label)
	}
	b.WriteString("\n")
	for i, name := range kb.Kernels {
		fmt.Fprintf(&b, "%-16s", name)
		for _, s := range kb.Series {
			fmt.Fprintf(&b, "%12.2f", stats.SignedRatio(s.Ratios[i]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// KernelBarsCSV renders a kernel-level figure as CSV.
func KernelBarsCSV(kb core.KernelBars) string {
	var b strings.Builder
	b.WriteString("kernel")
	for _, s := range kb.Series {
		fmt.Fprintf(&b, ",%s_ratio", strings.ReplaceAll(s.Label, " ", "_"))
	}
	b.WriteString("\n")
	for i, name := range kb.Kernels {
		b.WriteString(name)
		for _, s := range kb.Series {
			fmt.Fprintf(&b, ",%.4f", s.Ratios[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table4Text renders the x86 CPU summary in the paper's four columns.
func Table4Text(rows []core.Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: Summary of x86 CPUs used to compare against the SG2042\n\n")
	fmt.Fprintf(&b, "%-20s %-14s %-9s %-6s %s\n", "CPU", "Part", "Clock", "Cores", "Vector")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-14s %-9s %-6d %s\n", r.CPU, r.Part, r.Clock, r.Cores, r.Vector)
	}
	return b.String()
}
