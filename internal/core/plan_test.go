package core

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
)

// collidingCampaign is a spec whose grid collides on purpose: threads 0
// (full occupancy) and 64 resolve identically on the 64-core SG2042,
// and the duplicated clock value makes two combos share one derived
// machine. 2 combos x 2 threads x 1 placement x 1 precision = 4 grid
// points, all one configuration.
func collidingCampaign() CampaignSpec {
	return CampaignSpec{
		Bases:   []*machine.Machine{machine.SG2042()},
		Axes:    []AxisValues{{Axis: SweepClock, Values: []float64{2.0, 2.0}}},
		Threads: []int{0, 64},
	}
}

// TestCampaignDedupCollisionsIdentical: colliding grid points carry
// identical evaluated results — only the grid index differs — and those
// results are exactly what the collision-free form of the spec
// produces: colliding points meet on one suite-cache entry, and the
// sharing is invisible in the output.
func TestCampaignDedupCollisionsIdentical(t *testing.T) {
	st := NewStudy()
	res, err := st.Campaign(collidingCampaign(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("colliding campaign has %d points, want 4", len(res.Points))
	}
	ref, err := st.Campaign(CampaignSpec{
		Bases:   []*machine.Machine{machine.SG2042()},
		Axes:    []AxisValues{{Axis: SweepClock, Values: []float64{2.0}}},
		Threads: []int{64},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Points) != 1 {
		t.Fatalf("reference campaign has %d points, want 1", len(ref.Points))
	}
	want := ref.Points[0]
	for i, p := range res.Points {
		if p.Index != i {
			t.Errorf("point %d: Index %d", i, p.Index)
		}
		p.Index = want.Index
		if !reflect.DeepEqual(p, want) {
			t.Errorf("colliding point %d differs from its collision-free reference:\n got: %+v\nwant: %+v", i, p, want)
		}
	}
}

// TestCampaignPointsDedupMatchesCampaign: the point-subset surface
// returns, for any index selection over a colliding grid, exactly the
// points the full campaign evaluates, in request order — also when the
// grid's colliding points interleave rather than sit adjacent — and a
// full-grid request emits exactly what Campaign emits.
func TestCampaignPointsDedupMatchesCampaign(t *testing.T) {
	// interleaved: clock 2.0, 2.2, 2.0 x threads full, 64 — points 0,
	// 1, 4 and 5 are one configuration, 2 and 3 another.
	interleaved := CampaignSpec{
		Bases:   []*machine.Machine{machine.SG2042()},
		Axes:    []AxisValues{{Axis: SweepClock, Values: []float64{2.0, 2.2, 2.0}}},
		Threads: []int{0, 64},
	}
	for _, tc := range []struct {
		name       string
		spec       CampaignSpec
		selections [][]int
	}{
		{"adjacent", collidingCampaign(), [][]int{{0}, {3, 0}, {1, 2, 3, 0}}},
		{"interleaved", interleaved, [][]int{{0, 1, 2, 3, 4, 5}, {5, 2, 0}, {3, 4, 1}}},
	} {
		st := NewStudy().WithWorkers(2)
		var campaignOrder []int
		res, err := st.Campaign(tc.spec, func(p CampaignPoint) error {
			campaignOrder = append(campaignOrder, p.Index)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := gridOrder(len(res.Points)); !reflect.DeepEqual(campaignOrder, want) {
			t.Errorf("%s: Campaign emitted %v, want %v", tc.name, campaignOrder, want)
		}
		for _, indices := range tc.selections {
			var got []CampaignPoint
			if err := st.CampaignPoints(tc.spec, indices, func(p CampaignPoint) error {
				got = append(got, p)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(indices) {
				t.Fatalf("%s %v: emitted %d points", tc.name, indices, len(got))
			}
			for j, i := range indices {
				if got[j].Index != i {
					t.Errorf("%s %v: emission %d is point %d, want request order", tc.name, indices, j, got[j].Index)
				}
				if !reflect.DeepEqual(got[j], res.Points[i]) {
					t.Errorf("%s %v: point %d differs from full campaign", tc.name, indices, i)
				}
			}
		}
	}
}

// TestPlanMemoryFlatInGridSize pins the odometer claim: compiling a
// plan allocates per derived combo, not per grid point. Two specs with
// identical combos — one with a single software config, one whose
// software cross-product pushes the grid to the 8192-point cap — must
// compile with near-identical allocations, because the grid itself is
// never materialized.
func TestPlanMemoryFlatInGridSize(t *testing.T) {
	values := manyValues(32)
	small := CampaignSpec{
		Bases: []*machine.Machine{machine.SG2042()},
		Axes:  []AxisValues{{Axis: SweepClock, Values: values}},
	}
	big := CampaignSpec{
		Bases: []*machine.Machine{machine.SG2042()},
		Axes:  []AxisValues{{Axis: SweepClock, Values: values}},
		Threads: []int{
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
			17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
			33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
			49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
		},
		Placements: []placement.Policy{placement.Block, placement.CyclicNUMA},
		Precs:      []prec.Precision{prec.F32, prec.F64},
	}
	if n := big.Points(); n != 8192 {
		t.Fatalf("big grid has %d points, want the 8192 cap", n)
	}
	// buildPlan directly: planFor would memoize and measure cache hits.
	// Both specs derive the same number of machines, so the counts
	// differ only by what scales with the grid.
	smallAllocs := testing.AllocsPerRun(10, func() {
		if _, err := buildPlan(small); err != nil {
			t.Fatal(err)
		}
	})
	bigAllocs := testing.AllocsPerRun(10, func() {
		if _, err := buildPlan(big); err != nil {
			t.Fatal(err)
		}
	})
	if n := small.Points(); n >= 8192/64 {
		t.Fatalf("small grid has %d points; want far under the big grid", n)
	}
	// 256x the points should cost roughly nothing extra: allow slack for
	// the larger spec slices themselves, nothing point-proportional.
	if bigAllocs > smallAllocs+32 {
		t.Errorf("plan compilation scales with grid size: %.0f allocs at %d points vs %.0f at %d",
			bigAllocs, big.Points(), smallAllocs, small.Points())
	}
}

// TestPlanCacheEvictsPastCapacity: past maxPlans distinct specs the
// plan cache still memoizes the newest spec — it drops an old entry
// rather than refusing admission — and never grows past the bound.
func TestPlanCacheEvictsPastCapacity(t *testing.T) {
	var newest CampaignSpec
	for i := 0; i < 200; i++ {
		newest = CampaignSpec{
			Bases: []*machine.Machine{machine.SG2042()},
			Axes:  []AxisValues{{Axis: SweepClock, Values: []float64{1.0 + float64(i)/1000}}},
		}
		if _, err := planFor(newest); err != nil {
			t.Fatal(err)
		}
		if n := planCache.Len(); n > maxPlans {
			t.Fatalf("after %d specs the plan cache holds %d entries, want at most %d", i+1, n, maxPlans)
		}
	}
	a, err := planFor(newest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planFor(newest)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("the newest spec compiled twice: the full plan cache did not admit it")
	}
}

// FuzzCampaignGridOrder cross-checks the planner's index decoder
// against a naive materialization of the same grid: for every index,
// at must name exactly the (base, axis values, thread, placement,
// precision) tuple the nested loops of the pre-planner expansion
// produced, resolved into the point's and its base's configurations.
func FuzzCampaignGridOrder(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint8(2), uint8(2))
	// Exactly the 8192-point cap: 2 bases x 16x16 combos x 4x2x2.
	f.Add(uint8(2), uint8(16), uint8(16), uint8(4), uint8(2), uint8(2))
	// One axis value short of the cap boundary shape.
	f.Add(uint8(2), uint8(16), uint8(15), uint8(4), uint8(2), uint8(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, nBases, nA, nB, nT, nP, nQ uint8) {
		bases := []*machine.Machine{machine.SG2042(), machine.SG2044()}[:1+int(nBases)%2]
		axisA := make([]float64, 1+int(nA)%16)
		for i := range axisA {
			axisA[i] = 1.0 + float64(i)*0.25 // distinct valid clocks
		}
		axisB := make([]float64, 1+int(nB)%16)
		for i := range axisB {
			axisB[i] = 0.5 + float64(i)*0.125
		}
		threads := make([]int, 1+int(nT)%4)
		for i := range threads {
			threads[i] = i * 8
		}
		pols := []placement.Policy{placement.Block, placement.CyclicNUMA}[:1+int(nP)%2]
		precs := []prec.Precision{prec.F32, prec.F64}[:1+int(nQ)%2]
		spec := CampaignSpec{
			Bases: bases,
			Axes: []AxisValues{
				{Axis: SweepClock, Values: axisA},
				{Axis: SweepCores, Values: axisB},
			},
			Threads: threads, Placements: pols, Precs: precs,
		}
		// Core counts must derive cleanly: replace the fractional axis-B
		// values with valid core counts.
		for i := range axisB {
			axisB[i] = float64(8 * (i + 1))
		}
		plan, err := buildPlan(spec)
		total := len(bases) * len(axisA) * len(axisB) * len(threads) * len(pols) * len(precs)
		if total > MaxCampaignPoints {
			if err == nil {
				t.Fatalf("grid of %d points built past the %d cap", total, MaxCampaignPoints)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if plan.n != total {
			t.Fatalf("plan.n = %d, want %d", plan.n, total)
		}
		// The naive reference: materialize the grid the way the
		// pre-planner expansion did — bases outermost, axis values in
		// odometer order (last axis fastest), then threads, placements,
		// precisions.
		i := 0
		for bi, b := range bases {
			bfp, bufp := b.Fingerprint(), b.UncoreFingerprint()
			for ai, va := range axisA {
				for ci, vb := range axisB {
					combo := bi*(len(axisA)*len(axisB)) + ai*len(axisB) + ci
					for _, th := range threads {
						for _, pol := range pols {
							for _, pr := range precs {
								gc, cfg, base := plan.at(i)
								if gc != combo {
									t.Fatalf("index %d decodes to combo %d, want %d", i, gc, combo)
								}
								cb := plan.combos[gc]
								if cb.values[0] != va || cb.values[1] != vb {
									t.Fatalf("index %d: combo values %v, want [%g %g]", i, cb.values, va, vb)
								}
								want := planConfig{m: cb.m, fp: cb.fp, ufp: cb.ufp,
									threads: resolveThreads(th, cb.m.Cores), pol: pol, p: pr}
								wantBase := planConfig{m: b, fp: bfp, ufp: bufp,
									threads: resolveThreads(th, b.Cores), pol: pol, p: pr}
								if cfg != want || base != wantBase {
									t.Fatalf("index %d decodes to (%+v, %+v), want (%+v, %+v)", i, cfg, base, want, wantBase)
								}
								i++
							}
						}
					}
				}
			}
		}
		if i != plan.n {
			t.Fatalf("reference enumerated %d points, plan has %d", i, plan.n)
		}
	})
}

// TestCampaignCollisionsMatchUncached: on grids that collide every way
// a grid can — duplicate axis values, threads that clamp alike on a
// variant but not its base, repeated placements and precisions,
// several bases — a cached parallel campaign, whose colliding points
// share suite-cache entries, equals an uncached serial one, whose
// points each evaluate on their own.
func TestCampaignCollisionsMatchUncached(t *testing.T) {
	specs := []CampaignSpec{
		{
			Bases:      []*machine.Machine{machine.SG2042(), machine.SG2044(), machine.VisionFiveV2()},
			Axes:       []AxisValues{{Axis: SweepCores, Values: []float64{4, 32, 4, 64}}},
			Threads:    []int{0, 4, 64, 0, 128, 32, 2},
			Placements: []placement.Policy{placement.Block, placement.CyclicNUMA, placement.Block},
			Precs:      []prec.Precision{prec.F64, prec.F32, prec.F64},
		},
		{
			Bases: []*machine.Machine{machine.SG2042(), machine.EPYC7742()},
			Axes: []AxisValues{
				{Axis: SweepClock, Values: []float64{2.0, 2.5, 2.0}},
				{Axis: SweepCores, Values: []float64{16, 64, 16}},
			},
			Threads: []int{16, 0, 64, 16},
		},
		{Bases: []*machine.Machine{machine.SG2042x2()}, Threads: []int{0, 128, 64, 200}},
	}
	for i, spec := range specs {
		got, err := NewStudy().WithWorkers(4).Campaign(spec, nil)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		uncached := &Study{Model: perfmodel.New(), Runs: 5, Noise: 0.01, Seed: 42}
		want, err := uncached.Campaign(spec, nil)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spec %d: cached campaign differs from the uncached one", i)
		}
	}
}

// The planner hashes only the derivations that can change a machine's
// uncore fingerprint and hands clock and vector variants their
// parent's; every combo and base must still carry exactly its own
// machine's value, on grids that mix every axis.
func TestPlanUncoreFingerprints(t *testing.T) {
	specs := []CampaignSpec{
		{
			Bases: []*machine.Machine{machine.SG2042(), machine.SG2044()},
			Axes: []AxisValues{
				{Axis: SweepClock, Values: []float64{1.5, 2.5, 1.5}},
				{Axis: SweepCores, Values: []float64{16, 64}},
				{Axis: SweepVector, Values: []float64{256, 128}},
				{Axis: SweepNUMA, Values: []float64{1, 4}},
			},
		},
		{Bases: []*machine.Machine{machine.SG2042x2()}, Axes: []AxisValues{
			{Axis: SweepVector, Values: []float64{512}},
			{Axis: SweepSockets, Values: []float64{1, 2}},
			{Axis: SweepNodes, Values: []float64{2}},
			{Axis: SweepClock, Values: []float64{3}},
		}},
		{Bases: []*machine.Machine{machine.SG2042()}},
	}
	// Each axis alone ahead of a clock axis, so no later axis re-hashes.
	for _, ax := range []AxisValues{
		{Axis: SweepCores, Values: []float64{16, 32}},
		{Axis: SweepVector, Values: []float64{256}},
		{Axis: SweepNUMA, Values: []float64{1, 2}},
		{Axis: SweepSockets, Values: []float64{2}},
		{Axis: SweepNodes, Values: []float64{2}},
	} {
		specs = append(specs, CampaignSpec{Bases: []*machine.Machine{machine.SG2042()},
			Axes: []AxisValues{ax, {Axis: SweepClock, Values: []float64{2.5}}}})
	}
	for i, spec := range specs {
		p, err := buildPlan(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		for _, cb := range p.combos {
			if want := cb.m.UncoreFingerprint(); cb.ufp != want {
				t.Errorf("spec %d, %s: planned uncore fingerprint %#x, want %#x", i, cb.m.Label, cb.ufp, want)
			}
		}
		for bi, base := range p.spec.Bases {
			if want := base.UncoreFingerprint(); p.baseUFPs[bi] != want {
				t.Errorf("spec %d, base %s: planned uncore fingerprint %#x, want %#x", i, base.Label, p.baseUFPs[bi], want)
			}
		}
	}
}
