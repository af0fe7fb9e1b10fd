package core

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/prec"
)

// A cached RunSuite hit must stay O(1) small allocations: the key is
// hashed without reflection and the only allocation left is the
// 64-measurement result built for the caller.
func TestRunSuiteCachedHitAllocs(t *testing.T) {
	st := NewStudy()
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	if _, err := st.RunSuite(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.RunSuite(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("cached RunSuite hit allocates %.1f/op, want <= 1 (the result)", allocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// An uncached RunSuite allocates nothing beyond the model evaluation
// and the result it returns: its seconds stay in a stack buffer.
func TestRunSuiteUncachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths vary under -race")
	}
	st := NewStudy()
	st.NoCache = true
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	var buf [64]float64
	eval := testing.AllocsPerRun(100, func() {
		if _, err := st.runSuiteUncached(cfg, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(100, func() {
		if _, err := st.RunSuite(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if full > eval+1 {
		t.Errorf("uncached RunSuite allocates %.1f/op, want <= %.1f (the evaluation's %.1f plus the result)", full, eval+1, eval)
	}
}

// BenchmarkRunSuiteUncached is the miss path: a full 64-kernel suite
// evaluation through the batched model API.
func BenchmarkRunSuiteUncached(b *testing.B) {
	st := NewStudy()
	st.NoCache = true
	st.Noise = 0
	st.Runs = 1
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.RunSuite(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSuiteCachedHit is the hit path: key construction (with
// the machine fingerprint), the map lookup and the result copy.
func BenchmarkRunSuiteCachedHit(b *testing.B) {
	st := NewStudy()
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	if _, err := st.RunSuite(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.RunSuite(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
