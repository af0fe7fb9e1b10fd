package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/prec"
)

func smallCampaign() CampaignSpec {
	return CampaignSpec{
		Bases: []*machine.Machine{machine.SG2042(), machine.SG2044()},
		Axes: []AxisValues{
			{Axis: SweepVector, Values: []float64{128, 256}},
			{Axis: SweepNUMA, Values: []float64{1, 4}},
		},
		Threads: []int{0, 8},
	}
}

func TestCampaignExpansionOrder(t *testing.T) {
	st := NewStudy()
	res, err := st.Campaign(smallCampaign(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 bases x (2 vector x 2 numa) x 2 thread counts = 16 points.
	if len(res.Points) != 16 {
		t.Fatalf("expanded to %d points, want 16", len(res.Points))
	}
	// Grid order: bases outermost, last axis fastest, threads innermost.
	wantMachines := []string{
		"SG2042/v128/n1", "SG2042/v128/n1",
		"SG2042/v128/n4", "SG2042/v128/n4",
		"SG2042/v256/n1", "SG2042/v256/n1",
		"SG2042/v256/n4", "SG2042/v256/n4",
		"SG2044/v128/n1", "SG2044/v128/n1",
		"SG2044/v128/n4", "SG2044/v128/n4",
		"SG2044/v256/n1", "SG2044/v256/n1",
		"SG2044/v256/n4", "SG2044/v256/n4",
	}
	for i, p := range res.Points {
		if p.Index != i {
			t.Errorf("point %d carries index %d", i, p.Index)
		}
		if p.Machine != wantMachines[i] {
			t.Errorf("point %d is %s, want %s", i, p.Machine, wantMachines[i])
		}
	}
	// Threads alternate full occupancy (resolved to the variant's
	// cores) and 8.
	if p := res.Points[0]; p.Threads != p.Cores {
		t.Errorf("point 0 threads %d, want full occupancy %d", p.Threads, p.Cores)
	}
	if p := res.Points[1]; p.Threads != 8 {
		t.Errorf("point 1 threads %d, want 8", p.Threads)
	}
}

func TestCampaignEmitInGridOrder(t *testing.T) {
	st := NewStudy()
	st.Workers = 8
	var order []int
	res, err := st.Campaign(smallCampaign(), func(p CampaignPoint) error {
		order = append(order, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(res.Points) {
		t.Fatalf("emitted %d points, want %d", len(order), len(res.Points))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emit order %v is not grid order", order)
		}
	}
}

func TestCampaignSummaries(t *testing.T) {
	st := NewStudy()
	st.Workers = 4
	res, err := st.Campaign(smallCampaign(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != len(res.Points) {
		t.Fatalf("ranked %d of %d points", len(res.Ranked), len(res.Points))
	}
	for i := 1; i < len(res.Ranked); i++ {
		a, b := res.Points[res.Ranked[i-1]], res.Points[res.Ranked[i]]
		if a.MeanRatio < b.MeanRatio {
			t.Errorf("rank %d (%.3f) below rank %d (%.3f)", i-1, a.MeanRatio, i, b.MeanRatio)
		}
	}
	for _, class := range kernels.Classes {
		best, ok := res.BestByClass[class]
		if !ok {
			t.Errorf("no best point for class %v", class)
			continue
		}
		bestSecs := res.Points[best].ByClass[class].Seconds
		for _, p := range res.Points {
			if cell, ok := p.ByClass[class]; ok && cell.Seconds < bestSecs {
				t.Errorf("class %v: point %d (%.3g s) beats recorded best %d (%.3g s)",
					class, p.Index, cell.Seconds, best, bestSecs)
			}
		}
	}
	if len(res.Pareto) == 0 {
		t.Fatal("empty Pareto front")
	}
	// The front must be strictly improving in time as cores grow, and
	// no point may dominate a front member.
	for i := 1; i < len(res.Pareto); i++ {
		a, b := res.Points[res.Pareto[i-1]], res.Points[res.Pareto[i]]
		if b.Cores < a.Cores || b.TotalSeconds >= a.TotalSeconds {
			t.Errorf("front not monotone: (%d cores, %.3g s) then (%d cores, %.3g s)",
				a.Cores, a.TotalSeconds, b.Cores, b.TotalSeconds)
		}
	}
	for _, fi := range res.Pareto {
		f := res.Points[fi]
		for _, p := range res.Points {
			if p.Cores <= f.Cores && p.TotalSeconds <= f.TotalSeconds &&
				(p.Cores < f.Cores || p.TotalSeconds < f.TotalSeconds) {
				t.Errorf("point %d (%d cores, %.3g s) dominates front member %d (%d cores, %.3g s)",
					p.Index, p.Cores, p.TotalSeconds, fi, f.Cores, f.TotalSeconds)
			}
		}
	}
}

// TestCampaignSharesSweepCacheEntries is the tentpole cache property: a
// grid point whose derivation chain equals a single-axis sweep point
// must land on the same memoized suite entry — zero new evaluations
// after the sweep has warmed the cache.
func TestCampaignSharesSweepCacheEntries(t *testing.T) {
	st := NewStudy()
	st.Workers = 4
	sweep := SweepSpec{Base: machine.SG2042(), Axis: SweepVector,
		Values: []float64{128, 256}, Threads: 1}
	if _, err := st.MachineSweep(sweep); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := st.CacheStats()
	_, err := st.Campaign(CampaignSpec{
		Bases:   []*machine.Machine{machine.SG2042()},
		Axes:    []AxisValues{{Axis: SweepVector, Values: []float64{128, 256}}},
		Threads: []int{1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := st.CacheStats(); missesAfter != missesBefore {
		t.Errorf("campaign re-evaluated %d configurations the sweep already memoized",
			missesAfter-missesBefore)
	}
}

func TestCampaignValidation(t *testing.T) {
	sg := machine.SG2042()
	cases := []struct {
		name    string
		spec    CampaignSpec
		wantErr string
	}{
		{"no bases", CampaignSpec{}, "no base machines"},
		{"nil base", CampaignSpec{Bases: []*machine.Machine{nil}}, "nil base"},
		{"duplicate base", CampaignSpec{Bases: []*machine.Machine{sg, machine.SG2042()}}, "twice"},
		{"unknown axis", CampaignSpec{Bases: []*machine.Machine{sg},
			Axes: []AxisValues{{Axis: "dies", Values: []float64{2}}}}, "unknown campaign axis"},
		{"duplicate axis", CampaignSpec{Bases: []*machine.Machine{sg},
			Axes: []AxisValues{{Axis: SweepCores, Values: []float64{8}},
				{Axis: SweepCores, Values: []float64{16}}}}, "listed twice"},
		{"empty axis values", CampaignSpec{Bases: []*machine.Machine{sg},
			Axes: []AxisValues{{Axis: SweepCores}}}, "no values"},
		{"negative threads", CampaignSpec{Bases: []*machine.Machine{sg},
			Threads: []int{-1}}, "< 0"},
		{"bad placement", CampaignSpec{Bases: []*machine.Machine{sg},
			Placements: []placement.Policy{placement.Policy(99)}}, "placement"},
		{"bad precision", CampaignSpec{Bases: []*machine.Machine{sg},
			Precs: []prec.Precision{prec.Precision(9)}}, "precision"},
		{"vectorless widen", CampaignSpec{Bases: []*machine.Machine{machine.VisionFiveV2()},
			Axes: []AxisValues{{Axis: SweepVector, Values: []float64{256}}}}, "no vector unit"},
		{"oversized grid", CampaignSpec{Bases: []*machine.Machine{sg},
			Axes: []AxisValues{
				{Axis: SweepCores, Values: manyValues(96)},
				{Axis: SweepClock, Values: manyValues(96)},
			}}, "max"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func manyValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestCampaignTitleDeterministic(t *testing.T) {
	title := smallCampaign().Title()
	want := "Campaign: SG2042, SG2044 x vector=128,256 x numa=1,4 x threads=full,8 x block x FP32 (16 points)"
	if title != want {
		t.Errorf("title %q, want %q", title, want)
	}
}

// TestCampaignBaseRatioIsOne: a campaign with no axes grids over the
// bases themselves, so every point compares a machine to itself.
func TestCampaignNoAxesSelfRatio(t *testing.T) {
	st := NewStudy()
	res, err := st.Campaign(CampaignSpec{
		Bases:   []*machine.Machine{machine.SG2042()},
		Threads: []int{16},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.Machine != p.Base {
		t.Errorf("machine %q differs from base %q", p.Machine, p.Base)
	}
	if p.MeanRatio < 0.999 || p.MeanRatio > 1.001 {
		t.Errorf("self-ratio %v, want 1", p.MeanRatio)
	}
}

// stableSummaries computes a grid's ranked summaries the way assemble
// did with stable sorts, ties left in grid order by the sort itself:
// the reference rankByMeanRatio, bestByClass and paretoFront must
// equal.
func stableSummaries(points []CampaignPoint) (ranked []int, best map[kernels.Class]int, pareto []int) {
	ranked = gridOrder(len(points))
	slices.SortStableFunc(ranked, func(a, b int) int {
		ra, rb := points[a].MeanRatio, points[b].MeanRatio
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return 0
	})
	best = make(map[kernels.Class]int)
	for _, class := range kernels.Classes {
		bi := -1
		for i, p := range points {
			cell, ok := p.ByClass[class]
			if !ok {
				continue
			}
			if bi < 0 || cell.Seconds < points[bi].ByClass[class].Seconds {
				bi = i
			}
		}
		if bi >= 0 {
			best[class] = bi
		}
	}
	order := gridOrder(len(points))
	slices.SortStableFunc(order, func(a, b int) int {
		pa, pb := &points[a], &points[b]
		switch {
		case pa.Cores != pb.Cores:
			return pa.Cores - pb.Cores
		case pa.TotalSeconds < pb.TotalSeconds:
			return -1
		case pa.TotalSeconds > pb.TotalSeconds:
			return 1
		}
		return 0
	})
	bestSec := 0.0
	for k, i := range order {
		if k == 0 || points[i].TotalSeconds < bestSec {
			pareto = append(pareto, i)
			bestSec = points[i].TotalSeconds
		}
	}
	return ranked, best, pareto
}

// TestCampaignSummariesMatchStableSort: the summaries' unstable sorts
// with an explicit grid-index tie-break, and bestByClass carrying the
// best seconds forward, give exactly the stable-sort reference — on the
// colliding grids, whose repeated points tie exactly, and on seeded
// grids drawing MeanRatio, TotalSeconds, cores and cell seconds from
// pools small enough to force ties.
func TestCampaignSummariesMatchStableSort(t *testing.T) {
	check := func(name string, points []CampaignPoint) {
		t.Helper()
		ranked, best, pareto := stableSummaries(points)
		if got := rankByMeanRatio(points); !slices.Equal(got, ranked) {
			t.Errorf("%s: ranked %v, want %v", name, got, ranked)
		}
		if got := bestByClass(points); !reflect.DeepEqual(got, best) {
			t.Errorf("%s: best by class %v, want %v", name, got, best)
		}
		if got := paretoFront(points); !slices.Equal(got, pareto) {
			t.Errorf("%s: pareto %v, want %v", name, got, pareto)
		}
	}
	ties := 0
	for i, spec := range collidingSpecs() {
		res, err := NewStudy().WithWorkers(4).Campaign(spec, nil)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		seen := map[float64]bool{}
		for _, p := range res.Points {
			if seen[p.MeanRatio] {
				ties++
			}
			seen[p.MeanRatio] = true
		}
		check(fmt.Sprintf("colliding spec %d", i), res.Points)
	}
	if ties == 0 {
		t.Fatal("the colliding grids have no tied MeanRatio: the tie-break goes unchecked")
	}

	rng := rand.New(rand.NewSource(39))
	pick := func(pool ...float64) float64 { return pool[rng.Intn(len(pool))] }
	for trial := 0; trial < 300; trial++ {
		points := make([]CampaignPoint, 1+rng.Intn(256))
		for i := range points {
			p := &points[i]
			p.Index = i
			p.Cores = []int{4, 16, 64}[rng.Intn(3)]
			p.MeanRatio = pick(0.5, 1, 1.25, 2, rng.Float64())
			p.TotalSeconds = pick(1, 2, 3.5, 1+rng.Float64())
			p.ByClass = make(map[kernels.Class]CampaignCell)
			for _, class := range kernels.Classes {
				if rng.Intn(8) > 0 {
					p.ByClass[class] = CampaignCell{Seconds: pick(0.25, 0.5, 1, rng.Float64())}
				}
			}
		}
		check(fmt.Sprintf("seeded grid %d", trial), points)
	}
}
