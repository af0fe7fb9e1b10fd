package perfmodel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/autovec"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// uncoreCfg is the configuration the uncore tests evaluate.
func uncoreCfg(m *machine.Machine, threads int, pol placement.Policy, p prec.Precision) Config {
	return Config{Machine: m, Threads: threads, Placement: pol, Prec: p,
		Compiler: DefaultCompilerFor(m), Mode: autovec.VLS}
}

// The uncore memo must hold exactly the context a fresh placement
// analysis derives, for the machine asked about and for a clock and
// vector-width variant that hits its base's entry.
func TestUncoreMemoMatchesFreshAnalysis(t *testing.T) {
	mdl := New()
	for _, base := range machine.DefaultRegistry().Machines() {
		variant := base.Clone()
		variant.Label += "-variant"
		variant.ClockHz *= 1.5
		variant.Vector.WidthBits *= 2
		for _, pol := range placement.Policies {
			for threads := 1; threads <= base.Cores; threads++ {
				cfg := uncoreCfg(base, threads, pol, prec.F64)
				got, err := mdl.uncoreFor(cfg, base.UncoreFingerprint())
				if err != nil {
					t.Fatalf("%s %v %d threads: %v", base.Label, pol, threads, err)
				}
				var want uncoreCtx
				if err := mdl.initUncoreCtx(&want, cfg); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.ctx, want) {
					t.Fatalf("%s %v %d threads: memoized context %+v, fresh %+v", base.Label, pol, threads, got.ctx, want)
				}
				cfg.Machine = variant
				twin, err := mdl.uncoreFor(cfg, variant.UncoreFingerprint())
				if err != nil {
					t.Fatal(err)
				}
				if twin != got {
					t.Fatalf("%s %v %d threads: the clock and vector variant filled its own entry", base.Label, pol, threads)
				}
				if err := mdl.initUncoreCtx(&want, cfg); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(twin.ctx, want) {
					t.Fatalf("%s %v %d threads: the variant's fresh context %+v differs from its base's %+v", variant.Label, pol, threads, want, twin.ctx)
				}
			}
		}
	}
}

// Invalid inputs are never memoized, so each error names the machine
// that asked even when an uncore twin asked first.
func TestUncoreMemoErrorsNameTheAskingMachine(t *testing.T) {
	mdl := New()
	specs := suite.All()
	a := machine.SG2042()
	b := a.Clone()
	b.Label = "SG2042-fast"
	b.ClockHz *= 2
	for _, m := range []*machine.Machine{a, b, a} {
		_, err := mdl.SuitePlan(specs, uncoreCfg(m, m.Cores+1, placement.Block, prec.F64))
		if err == nil || !strings.HasSuffix(err.Error(), " of "+m.Label) {
			t.Errorf("SuitePlan on %s with too many threads: err = %v, want it to name %s", m.Label, err, m.Label)
		}
	}
	if _, err := mdl.SuitePlan(specs, uncoreCfg(a, 0, placement.Block, prec.F64)); err == nil {
		t.Error("SuitePlan accepted 0 threads")
	}
}

// A second clock variant of a configuration is one memo hit.
func TestUncoreMemoCountsClockVariantHit(t *testing.T) {
	mdl := New()
	specs := suite.All()
	base := machine.SG2044()
	fast, err := base.WithClock(base.ClockHz * 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdl.SuitePlan(specs, uncoreCfg(base, 7, placement.ClusterCyclic, prec.F32)); err != nil {
		t.Fatal(err)
	}
	hits, misses := UncoreStats()
	if _, err := mdl.SuitePlan(specs, uncoreCfg(fast, 7, placement.ClusterCyclic, prec.F32)); err != nil {
		t.Fatal(err)
	}
	h2, m2 := UncoreStats()
	if h2-hits != 1 || m2 != misses {
		t.Errorf("clock variant: %d hits and %d misses, want 1 and 0", h2-hits, m2-misses)
	}
}

// Models with equal calibrations share uncore halves; changing any
// one calibration field, found by reflection, keys its own.
func TestCalKeyCoversEveryField(t *testing.T) {
	base := New().calKey()
	if New().calKey() != base {
		t.Error("two default calibrations key differently")
	}
	typ := reflect.TypeOf(Calibration{})
	for i := 0; i < typ.NumField(); i++ {
		m := New()
		f := reflect.ValueOf(&m.Cal).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float()*2 + 1)
		case reflect.Map:
			eff := map[ir.Pattern]float64{}
			for p, v := range m.Cal.PatternEff {
				eff[p] = v
			}
			eff[ir.Unit] *= 0.5
			f.Set(reflect.ValueOf(eff))
		default:
			t.Fatalf("calibration field %s has kind %v: extend calKey and this test", typ.Field(i).Name, f.Kind())
		}
		if m.calKey() == base {
			t.Errorf("changing %s keeps the default calibration's key", typ.Field(i).Name)
		}
	}
}
