package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/suite"
)

// TestCampaignPointsMatchFullCampaign: a point evaluated through the
// shard-scoped API is bit-identical to the same point of a full
// campaign — the foundation of the distributed determinism contract.
func TestCampaignPointsMatchFullCampaign(t *testing.T) {
	spec := smallCampaign()
	full, err := NewStudy().Campaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Split the grid in two interleaved shards evaluated on separate
	// studies (separate caches, like separate worker processes).
	var shardA, shardB []int
	for i := range full.Points {
		if i%2 == 0 {
			shardA = append(shardA, i)
		} else {
			shardB = append(shardB, i)
		}
	}
	points := make([]CampaignPoint, len(full.Points))
	for _, shard := range [][]int{shardA, shardB} {
		st := NewStudy()
		if err := st.CampaignPoints(spec, shard, func(p CampaignPoint) error {
			points[p.Index] = p
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range points {
		if !reflect.DeepEqual(points[i], full.Points[i]) {
			t.Fatalf("point %d differs between sharded and full evaluation", i)
		}
	}

	// Assembling the sharded points reproduces the full result exactly,
	// ranked summaries included.
	res, err := AssembleCampaign(spec, points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("assembled campaign differs from directly-evaluated campaign")
	}
}

// TestCampaignPointsEmitsEachOnce: emit fires exactly once per
// requested index, in request order, even under parallel evaluation.
func TestCampaignPointsEmitsEachOnce(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy().WithWorkers(8)
	indices := []int{3, 0, 7, 12, 5}
	var got []int
	if err := st.CampaignPoints(spec, indices, func(p CampaignPoint) error {
		got = append(got, p.Index) // emit runs on this goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, indices) {
		t.Fatalf("emitted indices %v, want %v", got, indices)
	}
}

// TestCampaignPointsEmitPanicReachesCaller: on both entry points,
// Campaign and CampaignPoints, a panic in emit unwinds the caller's
// goroutine, where it can be recovered (as net/http recovers
// ErrAbortHandler), and stops the rest of the grid: by the time the
// caller recovers, no evaluation is left running for nobody. The grid
// is cold and no two points share a configuration, so it is still
// evaluating when the panic hits, and the suite-cache misses count the
// evaluations: were the rest of the grid not stopped, the drain would
// evaluate it all before the panic got through.
func TestCampaignPointsEmitPanicReachesCaller(t *testing.T) {
	clocks := make([]float64, 512)
	for i := range clocks {
		clocks[i] = 1.0 + 0.01*float64(i)
	}
	spec := CampaignSpec{
		Bases:   []*machine.Machine{machine.SG2042()},
		Axes:    []AxisValues{{Axis: SweepClock, Values: clocks}},
		Threads: []int{8, 16, 32, 0},
	}
	all := gridOrder(spec.Points())
	for _, tc := range []struct {
		name string
		run  func(st *Study, emit func(CampaignPoint) error)
	}{
		{"Campaign", func(st *Study, emit func(CampaignPoint) error) { st.Campaign(spec, emit) }},
		{"CampaignPoints", func(st *Study, emit func(CampaignPoint) error) { st.CampaignPoints(spec, all, emit) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStudy().WithWorkers(2)
			baseline := runtime.NumGoroutine()
			const sentinel = "emit panicked on purpose"
			func() {
				defer func() {
					if r := recover(); r != sentinel {
						t.Fatalf("recovered %v, want %q", r, sentinel)
					}
				}()
				calls := 0
				tc.run(st, func(CampaignPoint) error {
					if calls++; calls == 2 {
						panic(sentinel)
					}
					return nil
				})
			}()
			_, misses := st.CacheStats()
			if misses >= uint64(len(all))/2 {
				t.Fatalf("%d suite evaluations before the panic reached the caller, grid has %d points: the rest of the grid was not stopped", misses, len(all))
			}
			// Drained goroutines have signalled but may not have exited
			// yet; wait for them, without bounding how fast they go.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines 5s after recover, baseline %d: evaluation kept running", n, baseline)
			}
			if _, after := st.CacheStats(); after != misses {
				t.Fatalf("suite evaluations went on after the panic reached the caller: %d misses, then %d", misses, after)
			}
			n := 0
			if err := st.CampaignPoints(spec, all, func(CampaignPoint) error { n++; return nil }); err != nil || n != len(all) {
				t.Fatalf("campaign after a recovered panic: %d points, err %v", n, err)
			}
		})
	}
}

func TestCampaignPointsRejectsBadIndices(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy()
	for _, tc := range []struct {
		name    string
		indices []int
		want    string
	}{
		{"negative", []int{-1}, "out of range"},
		{"past end", []int{16}, "out of range"},
		{"duplicate", []int{2, 2}, "twice"},
	} {
		err := st.CampaignPoints(spec, tc.indices, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCampaignPointsEmitErrorAborts: an emit error stops the run and
// surfaces as-is.
func TestCampaignPointsEmitErrorAborts(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy().WithWorkers(4)
	indices := make([]int, spec.Points())
	for i := range indices {
		indices[i] = i
	}
	wantErr := "emit failed on purpose"
	calls := 0
	err := st.CampaignPoints(spec, indices, func(CampaignPoint) error {
		calls++
		if calls == 3 {
			return errTest(wantErr)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("err = %v, want %q", err, wantErr)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestAssembleCampaignValidates(t *testing.T) {
	spec := smallCampaign()
	full, err := NewStudy().Campaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleCampaign(spec, full.Points[:4]); err == nil {
		t.Error("assembled a partial grid without error")
	}
	shuffled := append([]CampaignPoint(nil), full.Points...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	if _, err := AssembleCampaign(spec, shuffled); err == nil {
		t.Error("assembled out-of-order points without error")
	}
	if _, err := AssembleCampaign(CampaignSpec{}, nil); err == nil {
		t.Error("assembled an invalid spec without error")
	}
}

// TestCampaignFingerprints: one fingerprint per grid point, aligned
// with expansion order, and equal for points sharing a machine variant
// (the property rendezvous-hash sharding keys on).
func TestCampaignFingerprints(t *testing.T) {
	spec := smallCampaign()
	fps, err := spec.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != spec.Points() {
		t.Fatalf("%d fingerprints for %d points", len(fps), spec.Points())
	}
	// Points 0 and 1 differ only in threads — same machine variant, so
	// the same fingerprint; point 2 is a different NUMA variant.
	if fps[0] != fps[1] {
		t.Error("same machine variant hashed to different fingerprints")
	}
	if fps[0] == fps[2] {
		t.Error("different machine variants hashed to the same fingerprint")
	}
	if _, err := (CampaignSpec{}).Fingerprints(); err == nil {
		t.Error("Fingerprints of an invalid spec did not error")
	}
}

// shortBaseSpec is a small cold grid over one base: every point's base
// reference is the SG2042 at full occupancy.
func shortBaseSpec() CampaignSpec {
	return CampaignSpec{
		Bases: []*machine.Machine{machine.SG2042()},
		Axes:  []AxisValues{{Axis: SweepClock, Values: []float64{1.5, 2.5, 3.5}}},
	}
}

// TestCampaignRestoredShortBase: a snapshot whose base entry holds one
// row, the shape a hostile or foreign -restore file or warm-join peer
// can send, is rejected by restore, so a campaign over that base
// evaluates it afresh and matches a cold study. Were it installed,
// every point would index the base past its one row.
func TestCampaignRestoredShortBase(t *testing.T) {
	spec := shortBaseSpec()
	src := NewStudy()
	want, err := src.Campaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := src.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	baseFP := binary.LittleEndian.AppendUint64(nil, machine.SG2042().Fingerprint())
	entries := snapshotParts(t, data)
	shortened := 0
	for i, e := range entries {
		if l := entryLayoutOf(t, e); bytes.Equal(e[l.fp:l.fp+8], baseFP) {
			entries[i] = pickSeconds(t, e, []int{0})
			shortened++
		}
	}
	if shortened != 1 {
		t.Fatalf("shortened %d base entries, want 1", shortened)
	}
	bad := assembleSnapshot(suite.All(), entries)
	st := NewStudy().WithWorkers(2)
	// Errorf, not Fatalf: a decoder that wrongly accepts the entry must
	// still be shown what the campaign then does with it.
	if n, err := st.RestoreCache(bad); err == nil || n != 0 {
		t.Errorf("RestoreCache = (%d, %v), want (0, error)", n, err)
	}
	got, err := st.Campaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("campaign after a rejected restore differs from a cold study's")
	}
}

// coldHeadSpec is a 64-point cold grid over one base: 16 clock
// variants, each under two thread counts and two placements.
func coldHeadSpec() CampaignSpec {
	clocks := make([]float64, 16)
	for i := range clocks {
		clocks[i] = 1.0 + 0.125*float64(i)
	}
	return CampaignSpec{
		Bases:      []*machine.Machine{machine.SG2042()},
		Axes:       []AxisValues{{Axis: SweepClock, Values: clocks}},
		Threads:    []int{0, 32},
		Placements: []placement.Policy{placement.Block, placement.CyclicNUMA},
	}
}

// TestCampaignHeadEvaluatesFirst: on a 4-worker study, the first point
// of a cold grid is emitted before the pool starts, so by then the
// suite cache has measured exactly the head and its base — two misses,
// whatever the scheduler does — and every later point still arrives in
// grid order.
func TestCampaignHeadEvaluatesFirst(t *testing.T) {
	spec := coldHeadSpec()
	st := NewStudy().WithWorkers(4)
	var next int
	_, err := st.Campaign(spec, func(p CampaignPoint) error {
		if p.Index != next {
			t.Fatalf("emitted point %d, want %d", p.Index, next)
		}
		if next == 0 {
			if hits, misses := st.CacheStats(); hits != 0 || misses != 2 {
				t.Errorf("at the first emit the suite cache saw %d hits and %d misses, want 0 and 2 (the head and its base)", hits, misses)
			}
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != spec.Points() {
		t.Fatalf("emitted %d points, want %d", next, spec.Points())
	}
}

// TestCampaignHeadEmitErrorStartsNoPool: an emit error at the head
// returns before any pool goroutine exists — the goroutine count is
// back at its baseline the moment Campaign returns, with no scheduler
// rounds allowed — and nothing beyond the head and its base was
// measured.
func TestCampaignHeadEmitErrorStartsNoPool(t *testing.T) {
	st := NewStudy().WithWorkers(4)
	baseline := runtime.NumGoroutine()
	const wantErr = "head refused on purpose"
	_, err := st.Campaign(coldHeadSpec(), func(CampaignPoint) error { return errTest(wantErr) })
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the head's emit error, baseline %d", n, baseline)
	}
	if err == nil || err.Error() != wantErr {
		t.Fatalf("err = %v, want %q", err, wantErr)
	}
	if _, misses := st.CacheStats(); misses != 2 {
		t.Errorf("%d suite-cache misses, want 2 (the head and its base)", misses)
	}
}

// TestCampaignContainsEvaluationPanic: a short entry installed straight
// into the cache, past restore's validation, makes evaluation index
// beyond its end. On the serial and the parallel pool alike the panic
// comes back from Campaign as a *par.PanicError, and the process
// survives. With two workers the head panics: it is evaluated on the
// calling goroutine, so the recovered stack runs through Campaign.
func TestCampaignContainsEvaluationPanic(t *testing.T) {
	spec := shortBaseSpec()
	plan, err := planFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bc := plan.at(0)
	bcfg := campaignConfig(bc.m, bc.threads, bc.pol, bc.p)
	for _, workers := range []int{1, 2} {
		st := NewStudy().WithWorkers(workers)
		if !st.cache.Put(st.suiteKeyFP(bcfg, bc.fp), []float64{1}) {
			t.Fatal("short base entry not installed")
		}
		_, err := st.Campaign(spec, nil)
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Campaign error = %v, want a *par.PanicError", workers, err)
		}
		if !strings.Contains(fmt.Sprint(pe.Value), "index out of range") {
			t.Fatalf("workers=%d: panic value %v, want an index out of range", workers, pe.Value)
		}
		if head := strings.Contains(string(pe.Stack), "core.(*Study).Campaign("); head != (workers > 1) {
			t.Errorf("workers=%d: panic on the calling goroutine = %v, want %v:\n%s", workers, head, workers > 1, pe.Stack)
		}
	}
}
