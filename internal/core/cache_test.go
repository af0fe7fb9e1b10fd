package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
)

func TestRunSuiteMemoized(t *testing.T) {
	st := NewStudy()
	cfg := sgConfig(1, placement.Block, prec.F32)
	a, err := st.suiteSeconds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.suiteSeconds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached result differs from first evaluation")
	}
	hits, misses := st.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A hit hands out the entry's own seconds, not a copy.
	if &a[0] != &b[0] {
		t.Error("cache hit copied the entry's seconds")
	}
}

func TestCachedMatchesUncached(t *testing.T) {
	cached := NewStudy()
	uncached := &Study{Model: perfmodel.New(), Runs: 5, Noise: 0.01, Seed: 42}
	for _, cfg := range []struct {
		name string
		c    func() ([]float64, []float64, error)
	}{
		{"sg-f32", func() ([]float64, []float64, error) {
			cfg := sgConfig(8, placement.CyclicNUMA, prec.F32)
			a, err := cached.suiteSeconds(cfg)
			if err != nil {
				return nil, nil, err
			}
			b, err := uncached.suiteSeconds(cfg)
			return a, b, err
		}},
		{"x86-f64", func() ([]float64, []float64, error) {
			cfg := mustMachineCfg(machine.EPYC7742(), 64, prec.F64)
			a, err := cached.suiteSeconds(cfg)
			if err != nil {
				return nil, nil, err
			}
			b, err := uncached.suiteSeconds(cfg)
			return a, b, err
		}},
	} {
		a, b, err := cfg.c()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: cached and uncached measurements differ", cfg.name)
		}
	}
}

func TestCacheKeyDistinguishesStudyKnobs(t *testing.T) {
	st := NewStudy()
	cfg := sgConfig(1, placement.Block, prec.F32)
	noisy, err := st.suiteSeconds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the Study's knobs must miss the old entry, not serve the
	// noisy measurements as exact ones.
	st.Noise = 0
	st.Runs = 1
	exact, err := st.suiteSeconds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(noisy, exact) {
		t.Error("exact run served stale noisy measurements")
	}
	_, misses := st.CacheStats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (knob change must change the key)", misses)
	}
	// Swapping in a different Model must also miss, not serve results
	// computed under the old calibration.
	st.Model = perfmodel.New()
	st.Model.Cal.VLAFactor = 0.5
	if _, err := st.suiteSeconds(cfg); err != nil {
		t.Fatal(err)
	}
	if _, misses := st.CacheStats(); misses != 3 {
		t.Errorf("misses = %d, want 3 (model swap must change the key)", misses)
	}
}

func TestCacheKeyDistinguishesMachineParams(t *testing.T) {
	st := NewStudy()
	st.Noise = 0
	st.Runs = 1
	stock, err := st.suiteSeconds(sgConfig(1, placement.Block, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	// A tweaked copy keeping the label must miss the stock entry and
	// produce different measurements, not be served stale ones.
	tweaked := *machine.SG2042()
	tweaked.ClockHz *= 2
	cfg := sgConfig(1, placement.Block, prec.F32)
	cfg.Machine = &tweaked
	fast, err := st.suiteSeconds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stock, fast) {
		t.Error("tweaked machine served the stock machine's cached measurements")
	}
	if _, misses := st.CacheStats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (machine params must be part of the key)", misses)
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: every
// experiment constructor yields identical results whatever Workers is.
func TestParallelMatchesSerial(t *testing.T) {
	serial := NewStudy()
	parallel := NewStudy()
	parallel.Workers = 8

	sf1, err := serial.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	pf1, err := parallel.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf1, pf1) {
		t.Error("Figure1 differs between serial and parallel evaluation")
	}

	for _, pol := range placement.Policies {
		stab, err := serial.ScalingTable(pol)
		if err != nil {
			t.Fatal(err)
		}
		ptab, err := parallel.ScalingTable(pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stab, ptab) {
			t.Errorf("ScalingTable(%v) differs between serial and parallel", pol)
		}
	}

	sf2, _ := serial.Figure2()
	pf2, _ := parallel.Figure2()
	if !reflect.DeepEqual(sf2, pf2) {
		t.Error("Figure2 differs between serial and parallel")
	}

	sf3, _ := serial.Figure3()
	pf3, _ := parallel.Figure3()
	if !reflect.DeepEqual(sf3, pf3) {
		t.Error("Figure3 differs between serial and parallel")
	}

	for _, mt := range []bool{false, true} {
		for _, p := range prec.Both {
			sx, err := serial.XCompare(p, mt)
			if err != nil {
				t.Fatal(err)
			}
			px, err := parallel.XCompare(p, mt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sx, px) {
				t.Errorf("XCompare(%v, %v) differs between serial and parallel", p, mt)
			}
		}
	}
}

// TestStudyConcurrentUse hammers one Study from many goroutines — the
// serving scenario — and checks agreement with a serial evaluation.
func TestStudyConcurrentUse(t *testing.T) {
	shared := NewStudy()
	shared.Workers = 4
	ref := NewStudy()
	refFig, err := ref.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fig, err := shared.Figure1()
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(fig, refFig) {
				errs <- errFigureMismatch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := shared.CacheStats()
	if misses > 6 {
		t.Errorf("misses = %d; concurrent identical requests must singleflight (6 configs)", misses)
	}
	if hits == 0 {
		t.Error("no cache hits across 8 identical requests")
	}
}

type constErr string

func (e constErr) Error() string { return string(e) }

const errFigureMismatch = constErr("concurrent Figure1 differs from serial reference")

// TestSuiteCacheConcurrentStress hammers the cache with many distinct
// keys from many goroutines at once — the make-race workload for the
// memo: concurrent misses on different keys, repeat hits, and
// singleflight coalescing on one key must all agree with a serial
// evaluation.
func TestSuiteCacheConcurrentStress(t *testing.T) {
	shared := NewStudy()
	serial := NewStudy()

	// 18 distinct configs (machine x threads x placement); thread counts stay within the smallest machine's 4 cores.
	// Each goroutine walks all of them from a different offset.
	var cfgs []perfmodel.Config
	for _, m := range []*machine.Machine{machine.SG2042(), machine.VisionFiveV2(), machine.EPYC7742()} {
		for _, threads := range []int{1, 2, 4} {
			for _, pol := range []placement.Policy{placement.Block, placement.CyclicNUMA} {
				cfg := mustMachineCfg(m, threads, prec.F32)
				cfg.Placement = pol
				cfgs = append(cfgs, cfg)
			}
		}
	}
	want := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		ms, err := serial.suiteSeconds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}

	const workers = 16
	const rounds = 3
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cfgs {
					j := (i + offset) % len(cfgs)
					ms, err := shared.suiteSeconds(cfgs[j])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(ms, want[j]) {
						errs <- constErr("concurrent suiteSeconds differs from serial reference")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := shared.CacheStats()
	if total := hits + misses; total != uint64(workers*rounds*len(cfgs)) {
		t.Errorf("stats dropped lookups: hits+misses = %d, want %d", total, workers*rounds*len(cfgs))
	}
	if misses != uint64(len(cfgs)) {
		t.Errorf("misses = %d, want %d (each config evaluates exactly once)", misses, len(cfgs))
	}
}

// A panicking evaluation must not poison the cache: the entry is
// dropped, so a second lookup of the same configuration evaluates
// (and panics) again instead of returning no measurements and a nil
// error.
func TestRunSuitePanicDoesNotPoisonCache(t *testing.T) {
	st := NewStudy()
	st.Model = nil
	cfg := sgConfig(1, placement.Block, prec.F32)
	for call := 1; call <= 2; call++ {
		var ms []float64
		var err error
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			ms, err = st.suiteSeconds(cfg)
			return false
		}()
		if !panicked && err == nil {
			t.Fatalf("call %d returned %d measurements and a nil error from a panicking evaluation", call, len(ms))
		}
	}
	if n := st.cache.Len(); n != 0 {
		t.Errorf("panicked evaluations left %d cache entries", n)
	}
	if hits, misses := st.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("panicked evaluations counted %d hits / %d misses", hits, misses)
	}
}

// TestSuiteCacheRetainedPerEntry bounds what one cold configuration
// keeps alive in the suite cache: its key, map slot, entry and 64
// per-kernel seconds. Only the Study seed (a key field) varies, so the
// configuration itself is the same throughout, every model-side memo
// hits, and the heap growth is the cache's alone.
func TestSuiteCacheRetainedPerEntry(t *testing.T) {
	const entries = 1024
	st := NewStudy()
	cfg := sgConfig(32, placement.CyclicNUMA, prec.F32)
	if _, err := st.suiteSeconds(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= entries; i++ {
		st.Seed = 42 + int64(i)
		if _, err := st.suiteSeconds(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if _, misses := st.CacheStats(); misses != entries+1 {
		t.Fatalf("%d cache misses, want %d distinct entries", misses, entries+1)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	t.Logf("suite cache retains %d B per entry", perEntry)
	if perEntry > 1200 {
		t.Errorf("suite cache retains %d B per entry, want <= 1200", perEntry)
	}
	runtime.KeepAlive(st)
}
