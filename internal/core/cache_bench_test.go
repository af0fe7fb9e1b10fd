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
// evaluation through the batched model API. One untimed evaluation
// first fills the process-wide memos and pools, so B/op measures the
// steady miss path rather than whichever of them the last GC emptied.
func BenchmarkRunSuiteUncached(b *testing.B) {
	st := NewStudy()
	st.NoCache = true
	st.Noise = 0
	st.Runs = 1
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

// sweepCache returns a study whose cache holds an SG2042 sweep of 384
// configurations: 64 thread counts, 3 placements, 2 precisions.
func sweepCache(b *testing.B) *Study {
	b.Helper()
	st := NewStudy()
	for threads := 1; threads <= 64; threads++ {
		for _, pol := range placement.Policies {
			for _, p := range []prec.Precision{prec.F32, prec.F64} {
				if _, err := st.RunSuite(sgConfig(threads, pol, p)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return st
}

// reportPerEntry reports the mean time per entry of b's timed loop and
// the snapshot's size per entry.
func reportPerEntry(b *testing.B, snapshot []byte, entries int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
	b.ReportMetric(float64(len(snapshot))/float64(entries), "B/entry")
}

// BenchmarkSnapshotCache is what a warm join's peer or a -snapshot
// write pays per entry, to set against BenchmarkRunSuiteUncached, the
// evaluation the entry saves.
func BenchmarkSnapshotCache(b *testing.B) {
	st := sweepCache(b)
	var data []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if data, err = st.SnapshotCache(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerEntry(b, data, st.cache.Len())
}

// BenchmarkRestoreCache is what the joiner or a -restore boot pays per
// entry: decode, validate and install into an empty cache.
func BenchmarkRestoreCache(b *testing.B) {
	st := sweepCache(b)
	data, err := st.SnapshotCache()
	if err != nil {
		b.Fatal(err)
	}
	want := st.cache.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewStudy()
		b.StartTimer()
		if n, err := fresh.RestoreCache(data); err != nil || n != want {
			b.Fatalf("RestoreCache = (%d, %v), want (%d, nil)", n, err, want)
		}
	}
	b.StopTimer()
	reportPerEntry(b, data, want)
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
