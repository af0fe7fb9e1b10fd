package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
)

func sampleFigure() core.Figure {
	mk := func(mean, min, max float64) stats.Summary {
		return stats.Summary{N: 5, Mean: mean, Min: min, Max: max}
	}
	byClass := map[kernels.Class]stats.Summary{
		kernels.Algorithm: mk(2, 1, 4),
		kernels.Stream:    mk(0.5, 0.25, 1),
	}
	return core.Figure{
		Title:    "Test figure",
		Baseline: "V2 FP64",
		Series:   []core.Series{{Label: "SG2042 FP32", ByClass: byClass}},
	}
}

func TestFigureText(t *testing.T) {
	out := FigureText(sampleFigure())
	for _, want := range []string{"Test figure", "V2 FP64", "SG2042 FP32", "Algorithm", "Stream"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Ratio 2 renders as +1.00 on the signed scale.
	if !strings.Contains(out, "1.00") {
		t.Errorf("signed value missing:\n%s", out)
	}
	// Ratio 0.5 renders as -1.00.
	if !strings.Contains(out, "-1.00") {
		t.Errorf("negative signed value missing:\n%s", out)
	}
}

func TestBar(t *testing.T) {
	pos := bar(2)
	if !strings.Contains(pos, "|####") {
		t.Errorf("positive bar wrong: %q", pos)
	}
	neg := bar(-2)
	if !strings.Contains(neg, "####|") {
		t.Errorf("negative bar wrong: %q", neg)
	}
	if len(bar(100)) != len(bar(0)) {
		t.Error("bar must clamp to fixed width")
	}
	if len(bar(-100)) != len(bar(0)) {
		t.Error("bar must clamp negative values")
	}
}

func TestFigureCSV(t *testing.T) {
	out := FigureCSV(sampleFigure())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "series,class,mean_ratio,min_ratio,max_ratio" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 { // header + 2 classes
		t.Errorf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "SG2042 FP32,Algorithm,2.0000,1.0000,4.0000") {
		t.Errorf("CSV row missing:\n%s", out)
	}
}

func TestScalingTableText(t *testing.T) {
	tab := core.ScalingTableResult{
		Title:   "Table X",
		Threads: []int{2, 4},
		Cells: map[int]map[kernels.Class]core.ScalingCell{
			2: {kernels.Stream: {Speedup: 1.93, PE: 0.96}},
			4: {kernels.Stream: {Speedup: 4.19, PE: 1.05}},
		},
	}
	out := ScalingTableText(tab)
	for _, want := range []string{"Table X", "Threads", "Stream", "1.93", "4.19", "1.05"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	csv := ScalingTableCSV(tab)
	if !strings.Contains(csv, "2,Stream,1.9300,0.9600") {
		t.Errorf("CSV missing row:\n%s", csv)
	}
}

func TestKernelBars(t *testing.T) {
	kb := core.KernelBars{
		Title:    "Figure 3 test",
		Baseline: "GCC",
		Kernels:  []string{"2MM", "HEAT_3D"},
		Series: []struct {
			Label  string
			Ratios []float64
		}{
			{Label: "Clang VLS", Ratios: []float64{0.5, 3}},
		},
	}
	out := KernelBarsText(kb)
	if !strings.Contains(out, "2MM") || !strings.Contains(out, "HEAT_3D") {
		t.Errorf("kernels missing:\n%s", out)
	}
	if !strings.Contains(out, "-1.00") || !strings.Contains(out, "2.00") {
		t.Errorf("signed ratios missing:\n%s", out)
	}
	csv := KernelBarsCSV(kb)
	if !strings.Contains(csv, "kernel,Clang_VLS_ratio") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "2MM,0.5000") {
		t.Errorf("CSV row wrong:\n%s", csv)
	}
}

func TestTable4Text(t *testing.T) {
	out := Table4Text(core.Table4())
	for _, want := range []string{"EPYC 7742", "Xeon E5-2695", "Xeon 6330", "Xeon E5-2609",
		"AVX512", "2.25GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestEndToEndRenderSmoke(t *testing.T) {
	// Render every real experiment to make sure nothing panics and the
	// output carries the paper's structure.
	st := core.NewStudy()
	st.Noise = 0
	st.Runs = 1

	fig1, err := st.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if out := FigureText(fig1); !strings.Contains(out, "SG2042 FP32") {
		t.Error("figure 1 render incomplete")
	}
	tab, err := st.ScalingTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if out := ScalingTableText(tab); !strings.Contains(out, "Polybench") {
		t.Error("scaling table render incomplete")
	}
	fig3, err := st.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if out := KernelBarsText(fig3); !strings.Contains(out, "JACOBI_2D") {
		t.Error("figure 3 render incomplete")
	}
}
