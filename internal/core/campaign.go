package core

// Multi-axis what-if campaigns. A sweep (sweep.go) varies one hardware
// axis of one machine; the follow-on studies the ROADMAP points at
// (the SG2044 evaluation, arXiv:2508.13840; the multi-socket
// high-core-count study, arXiv:2502.10320) ask cross-product questions:
// cores x clock x vector width x NUMA layout, across several machines,
// under several software configurations at once. A campaign grids over
// all of it — every point is one (derived machine, threads, placement,
// precision) configuration evaluated through the same config-keyed
// memoized suite cache the experiments and sweeps use — and summarises
// the grid as ranked tables: points ordered by speedup against their
// base machine, the best configuration per kernel class, and the Pareto
// front over cores x full-suite time.
//
// Determinism contract: grid expansion is a pure function of the spec
// (bases in order, axis values in odometer order with the last axis
// fastest, then threads, placements, precisions), points fan out over
// internal/par writing into their own slots, and a grid point whose
// derivation chain matches a single-axis sweep point lands on the same
// cache entry. Serial, parallel and cached campaigns are bit-identical.
//
// Execution goes through the compiled plan (plan.go): the spec is
// validated and its machines derived once, and each requested point is
// decoded from its index instead of materialized. Points that resolve
// to the same configuration — same derived machine, same clamped
// threads, placement and precision — meet on one suite-cache entry,
// which measures it once; every emitted point carries exactly the
// bytes the naive per-point path produces.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/autovec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
	"repro/internal/suite"
)

// AxisValues is one swept hardware axis of a campaign: the axis and the
// values it takes. A campaign grids over the cross-product of all its
// axes.
type AxisValues struct {
	Axis   SweepAxis
	Values []float64
}

// MaxCampaignPoints bounds the expanded grid so a network client cannot
// request an unbounded fan-out. It is deliberately larger than
// MaxSweepPoints — campaigns are the scale surface — and since the
// planner stopped materializing the grid (points decode arithmetically
// from their index) the bound guards evaluation work, not expansion
// memory, so it sits far above the old materialized limit of 512.
const MaxCampaignPoints = 8192

// CampaignSpec selects a multi-axis what-if campaign: several base
// machines, several swept hardware axes (cross-product), and several
// software configurations every hardware point runs under.
type CampaignSpec struct {
	// Bases are the machines to derive variants from; labels must be
	// unique (case-insensitively) so reports stay unambiguous.
	Bases []*machine.Machine
	// Axes are the swept hardware axes, applied to each base in order.
	// Each axis may appear once; an empty list grids over the bases
	// themselves.
	Axes []AxisValues
	// Threads lists the thread counts to run each hardware point with;
	// each is clamped to the variant's core count and 0 means full
	// occupancy. Empty means [0].
	Threads []int
	// Placements lists the thread placement policies; empty means
	// [Block].
	Placements []placement.Policy
	// Precs lists the floating-point precisions; empty means [FP32]
	// (the zero value, matching SweepSpec). The CLI and HTTP surfaces
	// default to FP64 explicitly.
	Precs []prec.Precision
}

// normalized returns the spec with the software-config defaults filled
// in: Threads [0], Placements [Block], Precs [FP32].
func (s CampaignSpec) normalized() CampaignSpec {
	if len(s.Threads) == 0 {
		s.Threads = []int{0}
	}
	if len(s.Placements) == 0 {
		s.Placements = []placement.Policy{placement.Block}
	}
	if len(s.Precs) == 0 {
		s.Precs = []prec.Precision{prec.F32}
	}
	return s
}

// Validate checks the spec and runs every derivation, so a bad request
// fails before any suite evaluation — the same boundary discipline as
// machine JSON specs and sweeps. The compiled plan is memoized, so
// validating and then evaluating a spec plans it once.
func (s CampaignSpec) Validate() error {
	_, err := planFor(s)
	return err
}

// Points returns the size of the expanded grid (0 when the spec is
// invalid).
func (s CampaignSpec) Points() int {
	plan, err := planFor(s)
	if err != nil {
		return 0
	}
	return plan.n
}

// Fingerprints returns the derived machine fingerprint of every grid
// point, in grid order. The distributed fabric (internal/fabric) keys
// its rendezvous-hash shard assignment on these, so every point of one
// derived machine lands on the same worker and each shard owns a
// stable slice of the suite cache. The fingerprints come straight off
// the compiled plan — one hash per combo, filled on first use and
// shared with the plan's evaluation, never one per point.
func (s CampaignSpec) Fingerprints() ([]uint64, error) {
	plan, err := planFor(s)
	if err != nil {
		return nil, err
	}
	fps := make([]uint64, plan.n)
	soft := plan.softPerCombo()
	for i := range fps {
		fps[i] = plan.combos[i/soft].fingerprint()
	}
	return fps, nil
}

// Title renders the campaign's deterministic heading.
func (s CampaignSpec) Title() string {
	n := s.normalized()
	labels := make([]string, len(n.Bases))
	for i, b := range n.Bases {
		if b != nil {
			labels[i] = b.Label
		}
	}
	var parts []string
	parts = append(parts, strings.Join(labels, ", "))
	for _, ax := range n.Axes {
		vals := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = fmt.Sprintf("%g", v)
		}
		parts = append(parts, fmt.Sprintf("%s=%s", ax.Axis, strings.Join(vals, ",")))
	}
	threads := make([]string, len(n.Threads))
	for i, t := range n.Threads {
		if t == 0 {
			threads[i] = "full"
		} else {
			threads[i] = fmt.Sprintf("%d", t)
		}
	}
	parts = append(parts, "threads="+strings.Join(threads, ","))
	pols := make([]string, len(n.Placements))
	for i, pol := range n.Placements {
		pols[i] = pol.String()
	}
	parts = append(parts, strings.Join(pols, ","))
	ps := make([]string, len(n.Precs))
	for i, p := range n.Precs {
		ps[i] = p.String()
	}
	parts = append(parts, strings.Join(ps, ","))
	return fmt.Sprintf("Campaign: %s (%d points)", strings.Join(parts, " x "), s.Points())
}

// CampaignCell is one (point, class) summary: the class's mean modelled
// time at that point and its ratio against the point's base machine
// under the same software configuration.
type CampaignCell struct {
	// Seconds is the mean per-kernel modelled time of the class.
	Seconds float64
	// Ratio summarises the per-kernel ratios base/point (> 1 means the
	// point is faster than its base).
	Ratio stats.Summary
}

// CampaignPoint is one evaluated grid point.
type CampaignPoint struct {
	// Index is the point's position in grid order.
	Index int
	// Base is the base machine's label; Machine is the derived
	// variant's (equal to Base when the campaign has no axes).
	Base    string
	Machine string
	// Values are the axis values applied, aligned with the spec's Axes.
	Values []float64
	// Threads is the resolved thread count the point ran with (the
	// requested count clamped to the variant's cores; 0 resolves to
	// full occupancy).
	Threads   int
	Placement placement.Policy
	Prec      prec.Precision
	// Cores is the variant's core count — one Pareto axis.
	Cores int
	// TotalSeconds is the summed modelled time of the full 64-kernel
	// suite — the other Pareto axis.
	TotalSeconds float64
	// MeanRatio is the grand mean of the per-class mean ratios against
	// the base — the ranking key.
	MeanRatio float64
	// ByClass holds the per-class cells.
	ByClass map[kernels.Class]CampaignCell
}

// CampaignResult is an evaluated campaign: every point in grid order
// plus the ranked summaries.
type CampaignResult struct {
	Title  string
	Points []CampaignPoint
	// Ranked lists point indices by descending MeanRatio (ties broken
	// by grid order).
	Ranked []int
	// BestByClass maps each class to the index of the point with the
	// lowest class mean time (ties broken by grid order).
	BestByClass map[kernels.Class]int
	// Pareto lists the indices of the points on the cores x
	// TotalSeconds Pareto front (no other point has both fewer-or-equal
	// cores and less-or-equal time with one strict), sorted by
	// ascending cores.
	Pareto []int
}

// campaignConfig is the software configuration of one grid point (and
// so of one sweep point): the machine's default compiler in VLS mode,
// like every machine comparison in the paper's experiments.
func campaignConfig(m *machine.Machine, threads int, pol placement.Policy, p prec.Precision) perfmodel.Config {
	return perfmodel.Config{
		Machine: m, Threads: resolveThreads(threads, m.Cores), Placement: pol,
		Prec: p, Compiler: perfmodel.DefaultCompilerFor(m), Mode: autovec.VLS,
	}
}

// evalPoint measures grid point i and its base under the same
// software configuration, both through the memoized suite cache, and
// summarises the point.
//
// The aggregation is the positional form of the Ratios/ClassSummaries
// pipeline the naive path used: ratios and per-class groups are read
// off the cached seconds by suite position (the order the map-based
// path iterated in anyway), so every float operation happens on the same
// values in the same order and the point is bit-identical — without
// the two name-keyed maps and per-class append-grown slices per point.
func (st *Study) evalPoint(plan *campaignPlan, i int) (CampaignPoint, error) {
	combo, pc, bc := plan.at(i)
	cfg := campaignConfig(pc.m, pc.threads, pc.pol, pc.p)
	secs, err := st.runSuiteShared(cfg, st.suiteKeyFP(cfg, pc.fp), pc.ufp)
	if err != nil {
		return CampaignPoint{}, err
	}
	bcfg := campaignConfig(bc.m, bc.threads, bc.pol, bc.p)
	base, err := st.runSuiteShared(bcfg, st.suiteKeyFP(bcfg, bc.fp), bc.ufp)
	if err != nil {
		return CampaignPoint{}, err
	}
	p := CampaignPoint{
		Index: i, Base: bc.m.Label, Machine: pc.m.Label, Values: plan.combos[combo].values,
		Threads: cfg.Threads, Placement: pc.pol, Prec: pc.p, Cores: pc.m.Cores,
		ByClass: make(map[kernels.Class]CampaignCell, len(kernels.Classes)),
	}
	// Scratch lives in stack arrays (the suite is 64 kernels; a custom
	// subset larger than that falls back to the heap) — the per-point
	// ratio and per-class slices were the naive path's hottest allocs.
	var ratiosArr, secsArr, ratsArr [64]float64
	ratios := ratiosArr[:0]
	if len(secs) > len(ratiosArr) {
		ratios = make([]float64, 0, len(secs))
	}
	for k, s := range secs {
		if s <= 0 {
			return CampaignPoint{}, fmt.Errorf("core: kernel %s has non-positive time", suite.All()[k].Name)
		}
		ratios = append(ratios, base[k]/s)
		p.TotalSeconds += s
	}
	pos := classPositions()
	sum, n := 0.0, 0
	for ci, class := range kernels.Classes {
		idxs := pos[ci]
		if len(idxs) == 0 {
			continue
		}
		cs, rats := secsArr[:0], ratsArr[:0]
		for _, k := range idxs {
			cs = append(cs, secs[k])
			rats = append(rats, ratios[k])
		}
		cell := CampaignCell{Seconds: stats.Mean(cs), Ratio: stats.Summarize(rats)}
		p.ByClass[class] = cell
		sum += cell.Ratio.Mean
		n++
	}
	if n > 0 {
		p.MeanRatio = sum / float64(n)
	}
	return p, nil
}

// Campaign evaluates a multi-axis campaign: every grid point through
// the same evaluation loop CampaignPoints uses, then the ranked
// summaries. When emit is non-nil it is called once per point, in grid
// order, as soon as the point and all its predecessors have finished —
// the streaming surface (NDJSON over HTTP) hangs off this hook without
// disturbing the determinism contract, because delivery order is grid
// order whatever the completion order. An emit error aborts the
// campaign after the in-flight evaluations drain.
func (st *Study) Campaign(spec CampaignSpec, emit func(CampaignPoint) error) (CampaignResult, error) {
	plan, err := planFor(spec)
	if err != nil {
		return CampaignResult{}, err
	}
	points := make([]CampaignPoint, 0, plan.n)
	err = st.evaluate(plan, gridOrder(plan.n), func(p CampaignPoint) error {
		points = append(points, p)
		if emit != nil {
			return emit(p)
		}
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}
	return assemble(spec, points), nil
}

// CheckPoints validates a grid-index selection against the spec: every
// index in range of the expanded grid, none twice. It is the one index
// check of the shard-scoped surfaces — CampaignPoints and the fabric
// worker's request validation.
func (s CampaignSpec) CheckPoints(indices []int) error {
	plan, err := planFor(s)
	if err != nil {
		return err
	}
	return plan.checkPoints(indices)
}

// checkPoints is CheckPoints on an already compiled plan, so
// CampaignPoints does not look the spec up twice.
func (p *campaignPlan) checkPoints(indices []int) error {
	seen := make([]bool, p.n)
	for _, i := range indices {
		if i < 0 || i >= p.n {
			return fmt.Errorf("core: campaign point %d out of range (grid has %d points)", i, p.n)
		}
		if seen[i] {
			return fmt.Errorf("core: campaign point %d requested twice", i)
		}
		seen[i] = true
	}
	return nil
}

// CampaignPoints evaluates only the selected grid points of spec — the
// shard-scoped form the distributed fabric's workers serve. Indices
// index the expanded grid (spec.Points()) and must pass CheckPoints.
// Evaluation runs through the same loop as a full Campaign, so emit is
// called once per index on the calling goroutine, in request order,
// and each point is bit-identical to the same point of a
// single-process campaign — same cache, same seeding. Because emit runs
// on the caller's goroutine, a panic in it (net/http's ErrAbortHandler
// from a dead client) unwinds the caller, where its handler can
// recover it. An emit error aborts the remaining evaluations.
func (st *Study) CampaignPoints(spec CampaignSpec, indices []int, emit func(CampaignPoint) error) error {
	plan, err := planFor(spec)
	if err != nil {
		return err
	}
	if err := plan.checkPoints(indices); err != nil {
		return err
	}
	return st.evaluate(plan, indices, emit)
}

// evaluate is the one evaluation loop of campaigns, shard-scoped point
// requests and sweeps (one-axis campaigns). The requested points
// evaluate over the study's worker pool into the shared memoized suite
// cache, where points that collide on one configuration meet. emit
// (nil to discard) runs on the calling goroutine once per index, in
// request order, as soon as that point and every earlier one are done.
// However evaluate leaves — finished, emit error, or a panic in emit —
// it stops new evaluations and drains the in-flight ones before
// returning, so nothing keeps evaluating for nobody.
//
// The head comes first: with more than one worker and more than one
// index, the calling goroutine evaluates the first requested index
// itself and emits it before the pool starts, so a streamed grid's
// first point waits for its own two suite configurations only, not for
// the pool's start-up and the scheduler. A panic in the head comes back
// as a *par.PanicError, as one in the pool does, before any emit.
func (st *Study) evaluate(plan *campaignPlan, indices []int, emit func(CampaignPoint) error) error {
	if st.Workers > 1 && len(indices) > 1 {
		var head CampaignPoint
		err := par.ForEach(1, 1, func(int) (err error) {
			head, err = st.evalPoint(plan, indices[0])
			return err
		})
		if err != nil {
			return err
		}
		if emit != nil {
			if err := emit(head); err != nil {
				return err
			}
		}
		indices = indices[1:]
	}
	// Workers fill evaluated[j] and send j on done, which holds every
	// point, so evaluation never waits on the caller's emit. After each
	// send a worker yields: the send readies the waiting caller on the
	// worker's own P, where it would otherwise sit until the worker's
	// time slice ends, delaying the first emitted point by milliseconds.
	evaluated := make([]CampaignPoint, len(indices))
	done := make(chan int, len(indices))
	var stop atomic.Bool
	var evalErr error
	go func() {
		defer close(done)
		evalErr = par.ForEach(len(indices), st.Workers, func(j int) error {
			if stop.Load() {
				return nil
			}
			p, err := st.evalPoint(plan, indices[j])
			if err != nil {
				return err
			}
			evaluated[j] = p
			done <- j
			runtime.Gosched()
			return nil
		})
	}()
	defer func() {
		stop.Store(true)
		for range done {
		}
	}()
	finished := make([]bool, len(indices))
	next := 0
	for j := range done {
		finished[j] = true
		for ; next < len(indices) && finished[next]; next++ {
			if emit != nil {
				if err := emit(evaluated[next]); err != nil {
					return err
				}
			}
		}
	}
	return evalErr
}

// AssembleCampaign builds a CampaignResult from already-evaluated
// points — the coordinator's final step after gathering a sharded
// grid. The points must be the full grid in grid order (point i at
// index i); the ranked summaries are then computed exactly as Campaign
// computes them, so an assembled result renders byte-identically to a
// single-process one.
func AssembleCampaign(spec CampaignSpec, points []CampaignPoint) (CampaignResult, error) {
	if err := spec.Validate(); err != nil {
		return CampaignResult{}, err
	}
	if n := spec.Points(); len(points) != n {
		return CampaignResult{}, fmt.Errorf("core: assembling campaign from %d points, grid has %d", len(points), n)
	}
	for i := range points {
		if points[i].Index != i {
			return CampaignResult{}, fmt.Errorf("core: campaign point at position %d has index %d", i, points[i].Index)
		}
	}
	return assemble(spec, points), nil
}

// assemble computes the ranked summaries over a full grid in grid
// order — shared by Campaign and AssembleCampaign, so a sharded result
// renders byte-identically to a single-process one.
func assemble(spec CampaignSpec, points []CampaignPoint) CampaignResult {
	return CampaignResult{
		Title:       spec.Title(),
		Points:      points,
		Ranked:      rankByMeanRatio(points),
		BestByClass: bestByClass(points),
		Pareto:      paretoFront(points),
	}
}

// rankByMeanRatio orders point indices by descending MeanRatio, grid
// order breaking ties: the order a stable sort of the grid gives, from
// an unstable one.
func rankByMeanRatio(points []CampaignPoint) []int {
	out := gridOrder(len(points))
	slices.SortFunc(out, func(a, b int) int {
		ra, rb := points[a].MeanRatio, points[b].MeanRatio
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return a - b
	})
	return out
}

// gridOrder returns the indices 0..n-1.
func gridOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// bestByClass finds, per class, the point with the lowest class mean
// time.
func bestByClass(points []CampaignPoint) map[kernels.Class]int {
	out := make(map[kernels.Class]int)
	for _, class := range kernels.Classes {
		best, bestSec := -1, 0.0
		for i := range points {
			cell, ok := points[i].ByClass[class]
			if ok && (best < 0 || cell.Seconds < bestSec) {
				best, bestSec = i, cell.Seconds
			}
		}
		if best >= 0 {
			out[class] = best
		}
	}
	return out
}

// paretoFront returns the indices of the points minimizing TotalSeconds
// per core budget: sorted by (cores, time, index), a point joins the
// front when it is strictly faster than everything with fewer or equal
// cores before it.
func paretoFront(points []CampaignPoint) []int {
	order := gridOrder(len(points))
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := &points[a], &points[b]
		switch {
		case pa.Cores != pb.Cores:
			return pa.Cores - pb.Cores
		case pa.TotalSeconds < pb.TotalSeconds:
			return -1
		case pa.TotalSeconds > pb.TotalSeconds:
			return 1
		}
		return a - b
	})
	var front []int
	best := 0.0
	for k, i := range order {
		if k == 0 || points[i].TotalSeconds < best {
			front = append(front, i)
			best = points[i].TotalSeconds
		}
	}
	return front
}
