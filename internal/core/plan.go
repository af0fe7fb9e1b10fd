package core

// The campaign planner. A CampaignSpec used to be re-expanded — every
// machine re-derived, re-validated and re-fingerprinted — by each of
// Validate, Points, Title, Campaign and Fingerprints, and every grid
// point paid its own suite-cache key construction, measurement copies
// and map-backed ratio aggregation. planFor compiles a spec exactly
// once into a campaignPlan:
//
//   - the derivation cache: each unique (parent machine, axis, value)
//     derivation is built and validated once, and duplicate axis values
//     resolve to the same *Machine, so downstream dedup is pointer
//     equality;
//   - the odometer: the grid is never materialized — a point's inputs
//     are decoded arithmetically from its index (bases outermost, axis
//     values in odometer order with the last axis fastest, then
//     threads, placements, precisions), so plan memory is flat in the
//     grid size and the point cap can sit far above the old
//     materialized limit;
//   - cross-point dedup: points whose resolved configuration collides —
//     same derived machine, same clamped thread counts (against both
//     the variant and its base), same placement and precision —
//     evaluate once and fan out in grid order;
//   - per-unit compilation: every evaluation unit carries its point and
//     base configurations with their precomputed machine fingerprints,
//     so cache lookups skip the per-point hash walk.
//
// Plans are memoized process-wide under a canonical content key (base
// fingerprints, exact axis value bit patterns, software lists), the
// same canonicalization the HTTP render cache uses, so repeated
// campaigns over one spec — including a serving daemon's — plan once.
// Everything here is an execution strategy: evaluation order, noise
// seeding and aggregation arithmetic are unchanged, and campaign bytes
// are bit-identical to the pre-planner path.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// planCombo is one (base, axis-value combination) of the grid: the
// derived machine shared by that combination's software points.
type planCombo struct {
	m      *machine.Machine
	fp     uint64    // m.Fingerprint(), hashed once
	ufp    uint64    // m.UncoreFingerprint(), inherited along clock and vector axes
	values []float64 // axis values applied, aligned with spec.Axes
	canon  int32     // first combo with the same machine (dup axis values)
}

// planConfig is one suite configuration a campaign evaluates — a grid
// point's own config or a base-machine reference config — with its
// fingerprints precomputed for suite-cache and uncore-memo keying.
type planConfig struct {
	m       *machine.Machine
	fp      uint64
	ufp     uint64
	threads int // resolved (clamped to m.Cores; 0 means full occupancy)
	pol     placement.Policy
	p       prec.Precision
}

// planUniq is one deduplicated evaluation unit: every grid point that
// resolves to the same (machine, clamped threads, base threads,
// placement, precision) shares it and fans its template out by index.
// Identical configurations of different units meet in the suite cache.
type planUniq struct {
	combo int32      // canonical combo (metadata: labels, values, cores)
	cfg   planConfig // the point's configuration
	base  planConfig // the base reference configuration
}

// campaignPlan is a compiled campaign: validated spec, derived
// machines, and the odometer geometry. The dedup tables are built
// lazily (dedup) because the cheap surfaces — Validate, Points, Title,
// Fingerprints — never need them.
type campaignPlan struct {
	spec       CampaignSpec // normalized
	combos     []planCombo
	axisCombos int
	baseFPs    []uint64 // per-base fingerprints, hashed once
	baseUFPs   []uint64 // per-base uncore fingerprints, hashed once
	n          int

	uniqOnce  sync.Once
	uniqs     []planUniq
	pointUniq []int32 // grid index -> uniq index
}

// softPerCombo is the number of software points per combo.
func (p *campaignPlan) softPerCombo() int {
	s := p.spec
	return len(s.Threads) * len(s.Placements) * len(s.Precs)
}

// resolveThreads clamps a requested thread count the way campaignConfig
// does: out-of-range (or 0 = full occupancy) resolves to all cores.
func resolveThreads(threads, cores int) int {
	if threads <= 0 || threads > cores {
		return cores
	}
	return threads
}

// Key canonicalizes the spec into its content key: every base's label
// and full fingerprint, the exact bit patterns of the axis values, and
// the software-config lists (defaults filled in). Two specs share a key
// only when they evaluate and render identical inputs, so the plan
// cache and the HTTP render cache both key on it. Built with byte
// appends — the key is computed on every campaign surface call, hit or
// miss.
func (s CampaignSpec) Key() string {
	s = s.normalized()
	b := make([]byte, 0, 192)
	for _, base := range s.Bases {
		if base == nil {
			b = append(b, "nil;"...)
			continue
		}
		b = append(b, base.Label...)
		b = append(b, '|')
		b = strconv.AppendUint(b, base.Fingerprint(), 16)
		b = append(b, ';')
	}
	for _, ax := range s.Axes {
		b = append(b, 'a')
		b = append(b, ax.Axis...)
		b = append(b, ':')
		for _, v := range ax.Values {
			b = strconv.AppendUint(b, math.Float64bits(v), 16)
			b = append(b, ',')
		}
	}
	b = append(b, 't')
	for _, t := range s.Threads {
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
	}
	b = append(b, 'p')
	for _, pol := range s.Placements {
		b = strconv.AppendInt(b, int64(pol), 10)
		b = append(b, ',')
	}
	b = append(b, 'q')
	for _, p := range s.Precs {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return string(b)
}

// planCache memoizes compiled plans process-wide. At maxPlans,
// admitting a new spec evicts an arbitrary entry, so a long-running
// process keeps memoizing its current specs. Validation errors are not
// kept: an invalid spec never takes a slot from a valid plan.
var planCache = memo.Map[string, *campaignPlan]{Max: maxPlans}

const maxPlans = 128

// planFor returns the compiled plan for spec, building and memoizing it
// on first use.
func planFor(s CampaignSpec) (*campaignPlan, error) {
	plan, _, err := planCache.Get(s.Key(), func() (*campaignPlan, error) {
		return buildPlan(s)
	})
	return plan, err
}

// buildPlan validates the spec and derives every combo's machine — the
// one-time compilation. The validation sequence (and so the first error
// reported) is identical to the old expand path.
func buildPlan(s CampaignSpec) (*campaignPlan, error) {
	s = s.normalized()
	if len(s.Bases) == 0 {
		return nil, fmt.Errorf("core: campaign has no base machines")
	}
	seen := make(map[string]bool, len(s.Bases))
	for _, b := range s.Bases {
		if b == nil {
			return nil, fmt.Errorf("core: campaign has a nil base machine")
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
		key := strings.ToLower(b.Label)
		if seen[key] {
			return nil, fmt.Errorf("core: campaign base %q listed twice", b.Label)
		}
		seen[key] = true
	}
	combos := 1
	seenAxis := make(map[SweepAxis]bool, len(s.Axes))
	for _, ax := range s.Axes {
		switch ax.Axis {
		case SweepCores, SweepClock, SweepVector, SweepNUMA, SweepSockets, SweepNodes:
		default:
			return nil, fmt.Errorf("core: unknown campaign axis %q (want one of %s)",
				ax.Axis, joinAxes())
		}
		if seenAxis[ax.Axis] {
			return nil, fmt.Errorf("core: campaign axis %s listed twice", ax.Axis)
		}
		seenAxis[ax.Axis] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("core: campaign axis %s has no values", ax.Axis)
		}
		combos *= len(ax.Values)
	}
	for _, t := range s.Threads {
		if t < 0 {
			return nil, fmt.Errorf("core: campaign threads %d < 0", t)
		}
	}
	for _, pol := range s.Placements {
		switch pol {
		case placement.Block, placement.CyclicNUMA, placement.ClusterCyclic:
		default:
			return nil, fmt.Errorf("core: unknown campaign placement %v", pol)
		}
	}
	for _, p := range s.Precs {
		switch p {
		case prec.F32, prec.F64:
		default:
			return nil, fmt.Errorf("core: unknown campaign precision %v", p)
		}
	}
	total := len(s.Bases) * combos * len(s.Threads) * len(s.Placements) * len(s.Precs)
	if total > MaxCampaignPoints {
		return nil, fmt.Errorf("core: campaign expands to %d points, max %d", total, MaxCampaignPoints)
	}

	plan := &campaignPlan{
		spec:       s,
		combos:     make([]planCombo, 0, len(s.Bases)*combos),
		axisCombos: combos,
		n:          total,
	}
	// The derivation cache: one build+validate per unique (parent, axis,
	// value); duplicate values within an axis share the derived machine
	// by pointer, which is what makes downstream dedup exact. It also
	// carries each variant's uncore fingerprint: a clock or vector
	// derivation changes only fields the uncore hash leaves out, so its
	// variant inherits the parent's value, and only the other axes hash
	// again. Planning precedes the first point, and each hash walks
	// every machine field.
	type dkey struct {
		parent *machine.Machine
		axis   SweepAxis
		bits   uint64
	}
	type derived struct {
		m   *machine.Machine
		ufp uint64
	}
	dcache := make(map[dkey]derived)
	values := make([]float64, len(s.Axes))
	plan.baseUFPs = make([]uint64, len(s.Bases))
	for bi, base := range s.Bases {
		var walk func(i int, m *machine.Machine, ufp uint64) error
		walk = func(i int, m *machine.Machine, ufp uint64) error {
			if i == len(s.Axes) {
				applied := append([]float64(nil), values...)
				plan.combos = append(plan.combos, planCombo{m: m, ufp: ufp, values: applied})
				return nil
			}
			axis := s.Axes[i].Axis
			for _, v := range s.Axes[i].Values {
				k := dkey{m, axis, math.Float64bits(v)}
				d, ok := dcache[k]
				if !ok {
					variant, err := deriveAxis(m, axis, v)
					if err != nil {
						return err
					}
					d = derived{variant, ufp}
					if axis != SweepClock && axis != SweepVector {
						d.ufp = variant.UncoreFingerprint()
					}
					dcache[k] = d
				}
				values[i] = v
				if err := walk(i+1, d.m, d.ufp); err != nil {
					return err
				}
			}
			return nil
		}
		plan.baseUFPs[bi] = base.UncoreFingerprint()
		if err := walk(0, base, plan.baseUFPs[bi]); err != nil {
			return nil, err
		}
	}
	// Fingerprint each distinct machine once; duplicate-value combos
	// alias their canonical combo.
	firstOf := make(map[*machine.Machine]int32, len(plan.combos))
	for i := range plan.combos {
		cb := &plan.combos[i]
		if j, ok := firstOf[cb.m]; ok {
			cb.canon = j
			cb.fp = plan.combos[j].fp
			continue
		}
		firstOf[cb.m] = int32(i)
		cb.canon = int32(i)
		cb.fp = cb.m.Fingerprint()
	}
	plan.baseFPs = make([]uint64, len(s.Bases))
	for bi, base := range s.Bases {
		if j, ok := firstOf[base]; ok { // no axes: the base is its own combo
			plan.baseFPs[bi] = plan.combos[j].fp
		} else {
			plan.baseFPs[bi] = base.Fingerprint()
		}
	}
	return plan, nil
}

// dedup lazily builds the evaluation tables: the deduplicated
// evaluation units and the grid-index mapping. Only the evaluation loop
// (evaluate, behind Campaign and CampaignPoints) pays for it.
//
// Units are found by index arithmetic, not by hashing each point. A
// unit is (canonical combo, thread class, placement, precision), each
// list entry standing for the first equal one: derived machines are
// unique per combo (duplicate axis values alias their canonical combo,
// and no two bases share a derivation), so the canonical combo fixes
// the machine and its base, and a thread class is the threads that
// clamp alike against both their core counts. A point's unit therefore
// first occurs at the grid index of those first entries — never after
// the point itself — so one pass in grid order numbers the units in
// first-occurrence order.
func (p *campaignPlan) dedup() {
	p.uniqOnce.Do(func() {
		s := p.spec
		nT, nP, nQ := len(s.Threads), len(s.Placements), len(s.Precs)
		polRep := firstAlike(nP, func(i, j int) bool { return s.Placements[i] == s.Placements[j] })
		precRep := firstAlike(nQ, func(i, j int) bool { return s.Precs[i] == s.Precs[j] })
		// Thread classes depend only on the two core counts.
		threadReps := make(map[[2]int][]int)
		p.pointUniq = make([]int32, p.n)
		at := 0
		for ci := range p.combos {
			canon := p.combos[ci].canon
			cb := &p.combos[canon]
			bi := ci / p.axisCombos
			base := s.Bases[bi]
			cores := [2]int{cb.m.Cores, base.Cores}
			threadRep, ok := threadReps[cores]
			if !ok {
				threadRep = firstAlike(nT, func(i, j int) bool {
					ti, tj := s.Threads[i], s.Threads[j]
					return resolveThreads(ti, cores[0]) == resolveThreads(tj, cores[0]) &&
						resolveThreads(ti, cores[1]) == resolveThreads(tj, cores[1])
				})
				threadReps[cores] = threadRep
			}
			for ti, t := range s.Threads {
				for pi, pol := range s.Placements {
					for qi, pr := range s.Precs {
						first := ((int(canon)*nT+threadRep[ti])*nP+polRep[pi])*nQ + precRep[qi]
						if first < at {
							p.pointUniq[at] = p.pointUniq[first]
						} else {
							p.pointUniq[at] = int32(len(p.uniqs))
							p.uniqs = append(p.uniqs, planUniq{
								combo: canon,
								cfg: planConfig{m: cb.m, fp: cb.fp, ufp: cb.ufp,
									threads: resolveThreads(t, cb.m.Cores), pol: pol, p: pr},
								base: planConfig{m: base, fp: p.baseFPs[bi], ufp: p.baseUFPs[bi],
									threads: resolveThreads(t, base.Cores), pol: pol, p: pr},
							})
						}
						at++
					}
				}
			}
		}
	})
}

// firstAlike returns, for each i in [0, n), the first j <= i that is
// alike(i, j) — the representative of i's class.
func firstAlike(n int, alike func(i, j int) bool) []int {
	rep := make([]int, n)
	for i := range rep {
		rep[i] = i
		for j := range i {
			if alike(i, j) {
				rep[i] = j
				break
			}
		}
	}
	return rep
}

// suiteClassPos maps each class (by its index in kernels.Classes) to
// the suite positions of its kernels, in suite order — the positional
// form of ClassSummaries' name-keyed aggregation.
var suiteClassPos struct {
	once sync.Once
	pos  [][]int
}

func classPositions() [][]int {
	suiteClassPos.once.Do(func() {
		specs := suite.All()
		idx := make(map[kernels.Class]int, len(kernels.Classes))
		for i, c := range kernels.Classes {
			idx[c] = i
		}
		pos := make([][]int, len(kernels.Classes))
		for i := range specs {
			j := idx[specs[i].Class]
			pos[j] = append(pos[j], i)
		}
		suiteClassPos.pos = pos
	})
	return suiteClassPos.pos
}
