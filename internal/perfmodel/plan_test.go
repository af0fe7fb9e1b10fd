package perfmodel_test

import (
	"testing"

	"repro/internal/autovec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
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

// siblings returns a machine's clock and vector-width variants: pairs
// that share every uncore field and so one uncore memo entry.
func siblings(t *testing.T, base *machine.Machine) [][2]*machine.Machine {
	t.Helper()
	var out [][2]*machine.Machine
	slow, err := base.WithClock(base.ClockHz * 0.75)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := base.WithClock(base.ClockHz * 1.5)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, [2]*machine.Machine{slow, fast}, [2]*machine.Machine{fast, base})
	if base.Vector.ISA != machine.NoVector {
		wide, err := base.WithVectorBits(base.Vector.WidthBits * 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]*machine.Machine{wide, base}, [2]*machine.Machine{slow, wide})
	}
	return out
}

// TestSiblingVariantsShareTheUncoreHalf is the memo's contract: after
// one clock or vector variant fills a configuration's uncore half, a
// sibling variant evaluated through it — by SuitePlan.Times and by the
// seconds path — equals, field for field, one-shot KernelTime on the
// sibling. KernelTime derives its kernel's uncore terms afresh from the
// memo's config-level context, which TestUncoreMemoMatchesFreshAnalysis
// pins against a fresh placement analysis of every variant.
func TestSiblingVariantsShareTheUncoreHalf(t *testing.T) {
	specs := suite.All()
	var buf []perfmodel.Breakdown
	for _, base := range machine.DefaultRegistry().Machines() {
		for _, pair := range siblings(t, base) {
			filler, sibling := pair[0], pair[1]
			mdl := perfmodel.New()
			for _, threads := range []int{1, base.Cores / 2, base.Cores} {
				if threads < 1 {
					continue
				}
				for _, pol := range placement.Policies {
					for _, p := range prec.Both {
						cfg := perfmodel.Config{Machine: filler, Threads: threads, Placement: pol, Prec: p,
							Compiler: perfmodel.DefaultCompilerFor(base), Mode: autovec.VLS}
						if _, err := mdl.SuitePlan(specs, cfg); err != nil {
							t.Fatal(err)
						}
						cfg.Machine = sibling
						plan, err := mdl.SuitePlan(specs, cfg)
						if err != nil {
							t.Fatal(err)
						}
						buf = plan.Times(buf)
						for i := range specs {
							want, err := mdl.KernelTime(specs[i], cfg)
							if err != nil {
								t.Fatal(err)
							}
							if buf[i] != want {
								t.Fatalf("%s after %s, %d threads %v %v, %s: planned %+v, one-shot %+v",
									sibling.Label, filler.Label, threads, pol, p, specs[i].Name, buf[i], want)
							}
							if s := plan.Seconds(i); s != want.Seconds {
								t.Fatalf("%s after %s, %d threads %v %v, %s: Seconds %v, one-shot %v",
									sibling.Label, filler.Label, threads, pol, p, specs[i].Name, s, want.Seconds)
							}
						}
					}
				}
			}
		}
	}
}

// A plan on a warm uncore memo builds only its clock rates: one
// allocation, the plan itself, and nothing per kernel.
func TestSuitePlanWarmAllocs(t *testing.T) {
	m := perfmodel.New()
	specs := suite.All()
	base := machine.SG2042()
	fast, err := base.WithClock(2.5e9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perfmodel.Config{Machine: base, Threads: 32, Placement: placement.ClusterCyclic,
		Prec: prec.F64, Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
	if _, err := m.SuitePlan(specs, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Machine = fast
	fp := fast.UncoreFingerprint()
	sum := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		plan, err := m.SuitePlanFP(specs, cfg, fp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			sum += plan.Seconds(i)
		}
	})
	if allocs > 1 {
		t.Errorf("warm SuitePlan plus seconds: %.1f allocs, want at most 1", allocs)
	}
	if sum <= 0 {
		t.Error("no seconds evaluated")
	}
}

// BenchmarkSuitePlanClockVariant prices a cold campaign point on a warm
// uncore memo: the plan of a clock variant whose base filled the memo,
// and every kernel's seconds.
func BenchmarkSuitePlanClockVariant(b *testing.B) {
	m := perfmodel.New()
	specs := suite.All()
	base := machine.SG2042()
	cfg := perfmodel.Config{Machine: base, Threads: 32, Placement: placement.ClusterCyclic,
		Prec: prec.F64, Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
	if _, err := m.SuitePlan(specs, cfg); err != nil {
		b.Fatal(err)
	}
	var variants []*machine.Machine
	for k := 0; k < 16; k++ {
		v, err := base.WithClock(base.ClockHz * (1 + float64(k)/16))
		if err != nil {
			b.Fatal(err)
		}
		variants = append(variants, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cfg.Machine = variants[n%len(variants)]
		plan, err := m.SuitePlan(specs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := range specs {
			_ = plan.Seconds(i)
		}
	}
}
