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
//     resolve to the same *Machine;
//   - the odometer: the grid is never materialized — at decodes a
//     point's combo and its point and base configurations from its
//     index (bases outermost, axis values in odometer order with the
//     last axis fastest, then threads, placements, precisions), so plan
//     memory is flat in the grid size;
//   - lazy fingerprints: the compile hashes only the bases (the plan
//     key needs them anyway). Each combo's machine fingerprint is
//     hashed once, on first use — by at, for whichever point of the
//     combo evaluates first, or by Fingerprints on a fabric coordinator
//     — and kept, so cache lookups skip the per-point hash walk and the
//     first point waits for its own hash, not for every derived
//     machine's.
//
// Points whose configurations collide — duplicate axis values, thread
// counts that clamp alike — are not deduplicated here: each evaluates
// through the suite cache, whose singleflight measures every
// configuration once, and noise is seeded per configuration, so
// colliding points carry identical bytes.
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

	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/placement"
	"repro/internal/prec"
)

// planCombo is one (base, axis-value combination) of the grid: the
// derived machine shared by that combination's software points.
type planCombo struct {
	m      *machine.Machine
	ufp    uint64    // m.UncoreFingerprint(), inherited along clock and vector axes
	values []float64 // axis values applied, aligned with spec.Axes

	// fp is m.Fingerprint(), hashed on first use (fingerprint) rather
	// than while the plan compiles: the first point then waits for one
	// hash, not one per derived machine.
	fpOnce sync.Once
	fp     uint64
}

// fingerprint returns the combo's machine fingerprint, hashing it on
// the first call. Pool workers (through at) and the fabric coordinator
// (through Fingerprints) may race to fill it; the once makes that safe.
func (c *planCombo) fingerprint() uint64 {
	c.fpOnce.Do(func() { c.fp = c.m.Fingerprint() })
	return c.fp
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

// campaignPlan is a compiled campaign: validated spec, derived
// machines, and the odometer geometry.
type campaignPlan struct {
	spec       CampaignSpec // normalized
	combos     []planCombo
	axisCombos int
	baseFPs    []uint64 // per-base fingerprints, hashed once
	baseUFPs   []uint64 // per-base uncore fingerprints, hashed once
	n          int
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
// one-time compilation. It pays only for what validation needs: every
// derivation is built and validated, but no derived machine is
// fingerprinted here (planCombo.fingerprint hashes each on first use).
// The validation sequence (and so the first error reported) is
// identical to the old expand path.
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
	// by pointer. It also carries each variant's uncore fingerprint: a
	// clock or vector derivation changes only fields the uncore hash
	// leaves out, so its variant inherits the parent's value, and only
	// the other axes hash again. Planning precedes the first point, and
	// each hash walks every machine field.
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
	plan.baseFPs = make([]uint64, len(s.Bases))
	for bi, base := range s.Bases {
		plan.baseFPs[bi] = base.Fingerprint()
	}
	return plan, nil
}

// at decodes grid index i: its combo, and the point's and its base's
// configurations under the point's software settings. The odometer
// runs precisions fastest, then placements, threads and combos, and a
// combo's base is combo / axisCombos. Colliding points decode to equal
// configurations and so meet on one suite-cache entry.
func (p *campaignPlan) at(i int) (combo int, cfg, base planConfig) {
	s := p.spec
	nQ, nP := len(s.Precs), len(s.Placements)
	pr := s.Precs[i%nQ]
	i /= nQ
	pol := s.Placements[i%nP]
	i /= nP
	t := s.Threads[i%len(s.Threads)]
	combo = i / len(s.Threads)
	cb := &p.combos[combo]
	bi := combo / p.axisCombos
	b := s.Bases[bi]
	cfg = planConfig{m: cb.m, fp: cb.fingerprint(), ufp: cb.ufp, threads: resolveThreads(t, cb.m.Cores), pol: pol, p: pr}
	base = planConfig{m: b, fp: p.baseFPs[bi], ufp: p.baseUFPs[bi], threads: resolveThreads(t, b.Cores), pol: pol, p: pr}
	return combo, cfg, base
}
