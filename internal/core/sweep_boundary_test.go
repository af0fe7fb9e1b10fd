package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
)

// Error-path coverage for SweepSpec validation: every rejection branch
// of plan()/deriveAxis(), checked through the public Validate and
// once through MachineSweep to prove a bad spec fails before any suite
// evaluation.

func TestSweepSpecValidateErrors(t *testing.T) {
	good := func() SweepSpec {
		return SweepSpec{Base: machine.SG2042(), Axis: SweepCores, Values: []float64{32, 64}}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}

	broken := *machine.SG2042()
	broken.Cores = 0

	many := make([]float64, MaxSweepPoints+1)
	for i := range many {
		many[i] = float64(i + 1)
	}

	cases := []struct {
		name string
		mut  func(*SweepSpec)
		want string
	}{
		{"nil base", func(s *SweepSpec) { s.Base = nil }, "no base machine"},
		{"invalid base", func(s *SweepSpec) { s.Base = &broken }, "cores"},
		{"unknown axis", func(s *SweepSpec) { s.Axis = "warp" }, `unknown sweep axis "warp"`},
		{"empty axis", func(s *SweepSpec) { s.Axis = "" }, "unknown sweep axis"},
		{"no values", func(s *SweepSpec) { s.Values = nil }, "no values"},
		{"too many values", func(s *SweepSpec) { s.Values = many }, "max 64"},
		{"negative threads", func(s *SweepSpec) { s.Threads = -1 }, "threads -1 < 0"},
		{"fractional cores", func(s *SweepSpec) { s.Values = []float64{1.5} }, "positive integer"},
		{"zero cores", func(s *SweepSpec) { s.Values = []float64{0} }, "positive integer"},
		{"negative cores", func(s *SweepSpec) { s.Values = []float64{-4} }, "positive integer"},
		{"oversized cores", func(s *SweepSpec) { s.Values = []float64{1 << 20} }, "cannot derive"},
		{"NaN clock", func(s *SweepSpec) { s.Axis = SweepClock; s.Values = []float64{math.NaN()} }, "positive finite GHz"},
		{"+Inf clock", func(s *SweepSpec) { s.Axis = SweepClock; s.Values = []float64{math.Inf(1)} }, "positive finite GHz"},
		{"zero clock", func(s *SweepSpec) { s.Axis = SweepClock; s.Values = []float64{0} }, "positive finite GHz"},
		{"negative clock", func(s *SweepSpec) { s.Axis = SweepClock; s.Values = []float64{-2.0} }, "positive finite GHz"},
		// Integral and positive but underivable: the branch where the
		// value is well-formed and the machine says no.
		{"no vector unit to widen", func(s *SweepSpec) {
			s.Base = machine.VisionFiveV2() // U74 cores: no vector unit
			s.Axis = SweepVector
			s.Values = []float64{256}
		}, "no vector unit"},
		{"uneven NUMA split", func(s *SweepSpec) {
			s.Axis = SweepNUMA
			s.Values = []float64{3}
		}, "do not divide"},
		// A bad value after good ones still rejects the whole spec: the
		// mid-grid derivation failure path.
		{"mid-grid failure", func(s *SweepSpec) { s.Values = []float64{32, 64, 2.5} }, "positive integer"},
		// The compiled one-axis campaign checks the software config too.
		{"unknown placement", func(s *SweepSpec) { s.Placement = 9 }, "unknown campaign placement"},
		{"unknown precision", func(s *SweepSpec) { s.Prec = 9 }, "unknown campaign precision"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := good()
			c.mut(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted the spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestMachineSweepRejectsBeforeEvaluation: MachineSweep surfaces the
// same validation error without touching the cache — a bad request
// costs no model time.
func TestMachineSweepRejectsBeforeEvaluation(t *testing.T) {
	st := NewStudy()
	_, err := st.MachineSweep(SweepSpec{Base: machine.SG2042(), Axis: "warp", Values: []float64{1}})
	if err == nil || !strings.Contains(err.Error(), "unknown sweep axis") {
		t.Fatalf("err = %v", err)
	}
	if hits, misses := st.CacheStats(); hits+misses != 0 {
		t.Errorf("rejected sweep touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// TestSweepThreadClamp: the thread rule boundaries — full occupancy at
// 0 and clamping above the variant's core count — via resolveThreads,
// the rule every sweep and campaign point runs under.
func TestSweepThreadClamp(t *testing.T) {
	m := machine.SG2042()
	for _, c := range []struct {
		threads, want int
	}{
		{0, m.Cores},           // full occupancy
		{1, 1},                 // explicit count below cores
		{m.Cores, m.Cores},     // exactly the core count
		{m.Cores + 1, m.Cores}, // clamped
	} {
		if got := resolveThreads(c.threads, m.Cores); got != c.want {
			t.Errorf("Threads=%d: resolveThreads = %d, want %d", c.threads, got, c.want)
		}
	}
}
