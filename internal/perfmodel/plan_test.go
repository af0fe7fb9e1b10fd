package perfmodel_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/suite"
)

// TestSuitePlanMatchesSuiteTimes pins the compiled-plan contract: a
// SuitePlan evaluated through Times — including into a reused buffer —
// is bit-identical to SuiteTimes (which batch_test.go already pins
// against per-kernel KernelTime) across the full configuration space.
func TestSuitePlanMatchesSuiteTimes(t *testing.T) {
	m := perfmodel.New()
	specs := suite.All()
	var buf []perfmodel.Breakdown
	for _, cfg := range batchConfigs() {
		want, err := m.SuiteTimes(specs, cfg)
		if err != nil {
			t.Fatalf("SuiteTimes(%+v): %v", cfg, err)
		}
		plan, err := m.SuitePlan(specs, cfg)
		if err != nil {
			t.Fatalf("SuitePlan(%+v): %v", cfg, err)
		}
		buf = plan.Times(buf)
		if len(buf) != len(specs) {
			t.Fatalf("plan evaluated %d kernels, want %d", len(buf), len(specs))
		}
		for i := range specs {
			if buf[i] != want[i] {
				t.Fatalf("cfg %+v kernel %s: planned breakdown %+v != %+v",
					cfg, specs[i].Name, buf[i], want[i])
			}
		}
	}
}

// TestSuitePlanSubset checks the non-canonical path: a plan over a
// fresh subset slice (no memoized table) matches per-kernel KernelTime.
func TestSuitePlanSubset(t *testing.T) {
	m := perfmodel.New()
	poly := suite.ByClass(kernels.Polybench)
	subset := make([]kernels.Spec, len(poly))
	copy(subset, poly)
	for _, cfg := range batchConfigs()[:6] {
		plan, err := m.SuitePlan(subset, cfg)
		if err != nil {
			t.Fatalf("SuitePlan: %v", err)
		}
		got := plan.Times(nil)
		for i := range subset {
			want, err := m.KernelTime(subset[i], cfg)
			if err != nil {
				t.Fatalf("KernelTime: %v", err)
			}
			if got[i] != want {
				t.Fatalf("kernel %s: %+v != %+v", subset[i].Name, got[i], want)
			}
		}
	}
}
