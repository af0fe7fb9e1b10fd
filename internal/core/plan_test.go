package core

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/prec"
)

// collidingCampaign is a spec whose grid collides on purpose: threads 0
// (full occupancy) and 64 resolve identically on the 64-core SG2042,
// and the duplicated clock value makes two combos share one derived
// machine. 2 combos x 2 threads x 1 placement x 1 precision = 4 grid
// points, all one evaluation unit.
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
// produces. This is the library face of the dedup determinism contract:
// deduplication is invisible in the output.
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
// grid's evaluation units interleave, so colliding points are not
// adjacent — and a full-grid request emits exactly what Campaign emits.
func TestCampaignPointsDedupMatchesCampaign(t *testing.T) {
	// interleaved: clock 2.0, 2.2, 2.0 x threads full, 64 — points 0,
	// 1, 4 and 5 are one unit, 2 and 3 another.
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
	// The first runs warm the machine-derivation memo so both measure
	// steady-state compilation.
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
		planCache.mu.Lock()
		n := len(planCache.m)
		planCache.mu.Unlock()
		if n > maxPlans {
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

// FuzzCampaignGridOrder cross-checks the odometer decode against a
// naive materialization of the same grid: for every index, caseAt must
// name exactly the (base, axis values, thread, placement, precision)
// tuple the nested loops of the pre-planner expansion produced.
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
		for bi := range bases {
			for ai, va := range axisA {
				for ci, vb := range axisB {
					combo := bi*(len(axisA)*len(axisB)) + ai*len(axisB) + ci
					for ti := range threads {
						for pi := range pols {
							for qi := range precs {
								gc, gt, gp, gq := plan.caseAt(i)
								if gc != combo || gt != ti || gp != pi || gq != qi {
									t.Fatalf("index %d decodes to (combo %d, t %d, p %d, q %d), want (%d, %d, %d, %d)",
										i, gc, gt, gp, gq, combo, ti, pi, qi)
								}
								cb := plan.combos[gc]
								if cb.values[0] != va || cb.values[1] != vb {
									t.Fatalf("index %d: combo values %v, want [%g %g]", i, cb.values, va, vb)
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

// dedupByMap is dedup by definition: units keyed on (derived machine,
// clamped threads against variant and base, placement, precision),
// numbered in first-occurrence grid order.
func dedupByMap(p *campaignPlan) (uniqs []planUniq, pointUniq []int32) {
	type key struct {
		m      *machine.Machine
		pt, bt int
		pol    placement.Policy
		pr     prec.Precision
	}
	seen := make(map[key]int32)
	for i := 0; i < p.n; i++ {
		ci, ti, pi, qi := p.caseAt(i)
		cb := &p.combos[p.combos[ci].canon]
		bi := ci / p.axisCombos
		base := p.spec.Bases[bi]
		t := p.spec.Threads[ti]
		k := key{cb.m, resolveThreads(t, cb.m.Cores), resolveThreads(t, base.Cores),
			p.spec.Placements[pi], p.spec.Precs[qi]}
		u, ok := seen[k]
		if !ok {
			u = int32(len(uniqs))
			seen[k] = u
			uniqs = append(uniqs, planUniq{
				combo: p.combos[ci].canon,
				cfg:   planConfig{m: cb.m, fp: cb.fp, threads: k.pt, pol: k.pol, p: k.pr},
				base:  planConfig{m: base, fp: p.baseFPs[bi], threads: k.bt, pol: k.pol, p: k.pr},
			})
		}
		pointUniq = append(pointUniq, u)
	}
	return uniqs, pointUniq
}

// TestDedupMatchesMapReference: the arithmetic dedup finds exactly the
// units, unit numbering and point mapping of the map-keyed form, on
// grids that collide every way a grid can — duplicate axis values,
// threads that clamp alike on one machine but not its base, repeated
// placements and precisions, several bases.
func TestDedupMatchesMapReference(t *testing.T) {
	specs := []CampaignSpec{
		collidingCampaign(),
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
		p, err := buildPlan(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		p.dedup()
		uniqs, pointUniq := dedupByMap(p)
		if !reflect.DeepEqual(p.pointUniq, pointUniq) {
			t.Errorf("spec %d: point->unit map\n got %v\nwant %v", i, p.pointUniq, pointUniq)
		}
		if !reflect.DeepEqual(p.uniqs, uniqs) {
			t.Errorf("spec %d: %d units, reference has %d, or they differ", i, len(p.uniqs), len(uniqs))
		}
		if len(p.uniqs) == p.n {
			t.Errorf("spec %d: no point collided; the spec tests nothing", i)
		}
	}
}
