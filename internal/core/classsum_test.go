package core

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
	"repro/internal/suite"
)

// refRow is one kernel's seconds joined with its name and class: the
// row the name-keyed reference aggregation below works on.
type refRow struct {
	Kernel  string
	Class   kernels.Class
	Seconds float64
}

func refRows(secs []float64) []refRow {
	specs := suite.All()
	rows := make([]refRow, len(secs))
	for k, s := range secs {
		rows[k] = refRow{Kernel: specs[k].Name, Class: specs[k].Class, Seconds: s}
	}
	return rows
}

// refRatios is the name-keyed per-kernel ratio map base/test.
func refRatios(base, test []refRow) map[string]float64 {
	baseBy := make(map[string]float64, len(base))
	for _, m := range base {
		baseBy[m.Kernel] = m.Seconds
	}
	out := make(map[string]float64, len(test))
	for _, m := range test {
		out[m.Kernel] = baseBy[m.Kernel] / m.Seconds
	}
	return out
}

// refClassSummaries groups ratios by class, walking the suite in order,
// and summarises each group.
func refClassSummaries(ratios map[string]float64) map[kernels.Class]stats.Summary {
	byClass := make(map[kernels.Class][]float64)
	for _, spec := range suite.All() {
		if r, ok := ratios[spec.Name]; ok {
			byClass[spec.Class] = append(byClass[spec.Class], r)
		}
	}
	out := make(map[kernels.Class]stats.Summary, len(byClass))
	for c, rs := range byClass {
		out[c] = stats.Summarize(rs)
	}
	return out
}

// refSpeedups is the scaling tables' class speed up: the mean of the
// kernels' t1/tn, grouped through name-keyed maps.
func refSpeedups(base, test []refRow) map[kernels.Class]float64 {
	baseBy := make(map[string]refRow, len(base))
	for _, m := range base {
		baseBy[m.Kernel] = m
	}
	perClass := make(map[kernels.Class][]float64)
	for _, m := range test {
		perClass[m.Class] = append(perClass[m.Class], baseBy[m.Kernel].Seconds/m.Seconds)
	}
	out := make(map[kernels.Class]float64, len(perClass))
	for c, sps := range perClass {
		out[c] = stats.Mean(sps)
	}
	return out
}

// refClassSeconds is each class's mean test seconds, grouped by class.
func refClassSeconds(test []refRow) map[kernels.Class]float64 {
	perClass := make(map[kernels.Class][]float64)
	for _, m := range test {
		perClass[m.Class] = append(perClass[m.Class], m.Seconds)
	}
	out := make(map[kernels.Class]float64, len(perClass))
	for c, secs := range perClass {
		out[c] = stats.Mean(secs)
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestClassSummariesMatchNameKeyedReference: the positional aggregation
// every figure, table and campaign point uses gives, bit for bit, what
// the name-keyed maps give — per-class ratio summaries (figures), class
// means of t1/tn (scaling tables) and class mean seconds (campaign
// cells) — for every preset, precision, placement and thread count
// 1, 4 and full, against the Figure 1 and the scaling-table baselines.
func TestClassSummariesMatchNameKeyedReference(t *testing.T) {
	st := NewStudy()
	bases := []struct {
		name string
		cfg  perfmodel.Config
	}{
		{"V2 FP64", mustMachineCfg(machine.VisionFiveV2(), 1, prec.F64)},
		{"SG2042 1-thread FP32", sgConfig(1, placement.Block, prec.F32)},
	}
	reg := machine.DefaultRegistry()
	cases := 0
	for _, label := range reg.Labels() {
		m, _ := reg.Get(label)
		for _, p := range prec.Both {
			for _, threads := range []int{1, 4, 0} {
				for _, pol := range placement.Policies {
					cfg := mustMachineCfg(m, resolveThreads(threads, m.Cores), p)
					cfg.Placement = pol
					test, err := st.suiteSeconds(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range bases {
						base, err := st.suiteSeconds(b.cfg)
						if err != nil {
							t.Fatal(err)
						}
						where := label + " " + p.String() + " " + pol.String() + " vs " + b.name
						checkAgainstReference(t, where, base, test)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d (configuration, base) pairs match the reference", cases)
}

func checkAgainstReference(t *testing.T, where string, base, test []float64) {
	t.Helper()
	baseRows, testRows := refRows(base), refRows(test)
	wantRatios := refClassSummaries(refRatios(baseRows, testRows))
	wantSpeedups := refSpeedups(baseRows, testRows)
	wantSecs := refClassSeconds(testRows)
	yields := 0
	if err := classSummaries(base, test, func(c kernels.Class, secs float64, r stats.Summary) {
		yields++
		want := wantRatios[c]
		if r.N != want.N || !sameBits(r.Mean, want.Mean) || !sameBits(r.Min, want.Min) || !sameBits(r.Max, want.Max) {
			t.Errorf("%s, %v: ratio summary %+v, reference %+v", where, c, r, want)
		}
		if !sameBits(r.Mean, wantSpeedups[c]) {
			t.Errorf("%s, %v: speed up %v, reference %v", where, c, r.Mean, wantSpeedups[c])
		}
		if !sameBits(secs, wantSecs[c]) {
			t.Errorf("%s, %v: mean seconds %v, reference %v", where, c, secs, wantSecs[c])
		}
	}); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if yields != len(wantRatios) {
		t.Errorf("%s: %d classes yielded, reference has %d", where, yields, len(wantRatios))
	}
}
