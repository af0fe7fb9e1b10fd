package core

import (
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
)

// A cached suite hit allocates nothing: the key is hashed without
// reflection and the caller reads the entry's own seconds.
func TestRunSuiteCachedHitAllocs(t *testing.T) {
	st := NewStudy()
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	if _, err := st.suiteSeconds(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.suiteSeconds(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("cached suite hit allocates %.1f/op, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// An uncached suite lookup allocates nothing beyond the model
// evaluation and the seconds it returns.
func TestRunSuiteUncachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths vary under -race")
	}
	st := &Study{Model: perfmodel.New(), Runs: 5, Noise: 0.01, Seed: 42}
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	var buf [64]float64
	eval := testing.AllocsPerRun(100, func() {
		if _, err := st.runSuiteUncached(cfg, cfg.Machine.UncoreFingerprint(), buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(100, func() {
		if _, err := st.suiteSeconds(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if full > eval+1 {
		t.Errorf("uncached suite lookup allocates %.1f/op, want <= %.1f (the evaluation's %.1f plus the result)", full, eval+1, eval)
	}
}

// BenchmarkRunSuiteUncached is the miss path: a full 64-kernel suite
// evaluation through the batched model API. One untimed evaluation
// first fills the process-wide memos and pools, so B/op measures the
// steady miss path rather than whichever of them the last GC emptied.
func BenchmarkRunSuiteUncached(b *testing.B) {
	st := &Study{Model: perfmodel.New(), Runs: 1, Seed: 42}
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	if _, err := st.suiteSeconds(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.suiteSeconds(cfg); err != nil {
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
				if _, err := st.suiteSeconds(sgConfig(threads, pol, p)); err != nil {
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
// the machine fingerprint) and the map lookup.
func BenchmarkRunSuiteCachedHit(b *testing.B) {
	st := NewStudy()
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	if _, err := st.suiteSeconds(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.suiteSeconds(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
