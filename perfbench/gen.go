package main

// Seeded operation generators. Every workload is a fixed sequence: a
// few untimed warm-up operations followed by the timed ones, both a
// pure function of (workload, seed). The daemon only ever sees the
// generated requests; the seed never crosses the wire.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro"
	"repro/internal/fabric"
)

// op is one request of a sequence.
type op struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	// Accept, when set, is sent as the Accept header.
	Accept string `json:"accept,omitempty"`
	// Gzip sends Accept-Encoding: gzip.
	Gzip bool `json:"gzip,omitempty"`
	// Cond sends If-None-Match with the ETag of the same rendering, so
	// the answer is a bodyless 304.
	Cond bool `json:"cond,omitempty"`
	// Body is the request body (a campaign spec).
	Body string `json:"body,omitempty"`
	// Points is the number of grid points a campaign op delivers.
	Points int `json:"points,omitempty"`
}

// key identifies the op's request; equal keys get identical answers.
func (o op) key() string {
	return fmt.Sprintf("%s %s accept=%s gzip=%t cond=%t %s", o.Method, o.Path, o.Accept, o.Gzip, o.Cond, o.Body)
}

// plainKey is the key of the unconditional form of the op, whose
// answer carries the ETag a conditional op sends.
func (o op) plainKey() string {
	o.Cond = false
	return o.key()
}

// sequence is one workload's fixed op sequence for a seed.
type sequence struct {
	Warmup []op `json:"warmup"`
	Timed  []op `json:"timed"`
}

// all returns warm-up then timed ops.
func (s sequence) all() []op {
	return append(append([]op(nil), s.Warmup...), s.Timed...)
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// fleet runs the daemon as a coordinator over two workers.
	fleet bool
	// campaign marks the campaign workloads (NDJSON POSTs).
	campaign bool
	gen      func(seed int64) sequence
	// roundSeconds is the nominal wall time of one round (launch, set-up,
	// timed ops, probes, shutdown) on a 2-vCPU x86 box; --seconds is
	// divided by it to fix the number of rounds, so the amount of work is
	// a function of the arguments alone, never of elapsed time.
	roundSeconds float64
}

var workloads = []workload{
	{name: "artefact-read", gen: genArtefactRead, roundSeconds: 0.22},
	{name: "campaign-cold", campaign: true, gen: genCampaignCold, roundSeconds: 0.5},
	{name: "campaign-overlap", campaign: true, gen: genCampaignOverlap, roundSeconds: 0.22},
	{name: "fabric-cold", campaign: true, fleet: true, gen: genCampaignCold, roundSeconds: 0.62},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- artefact-read -------------------------------------------------

// artefactCopies is how many times the timed sequence holds each op of
// the balanced multiset.
const artefactCopies = 2

// artefactURLs lists the prewarmed corpus: every experiment (and "all")
// in text, CSV, JSON and binary, the roofline at both precisions for
// every paper preset and the cluster report for every registry machine,
// in text, JSON and binary. These are exactly the renderings
// sg2042d -prewarm puts in its render cache.
func artefactURLs() []string {
	var urls []string
	for _, name := range append(append([]string(nil), repro.ExperimentNames...), "all") {
		for _, f := range []string{"text", "csv", "json", "binary"} {
			urls = append(urls, "/v1/experiments/"+name+"?format="+f)
		}
	}
	for _, m := range repro.Machines() {
		for _, p := range []string{"f64", "f32"} {
			for _, f := range []string{"text", "json", "binary"} {
				urls = append(urls, "/v1/roofline/"+m.Label+"?prec="+p+"&format="+f)
			}
		}
	}
	for _, label := range repro.DefaultMachineRegistry().Labels() {
		for _, f := range []string{"text", "json", "binary"} {
			urls = append(urls, "/v1/cluster/"+label+"?format="+f)
		}
	}
	return urls
}

// machineURLs are the registry listings: served live, not cached, so
// they get no conditional or gzip variants.
func machineURLs() []string {
	urls := []string{"/v1/machines"}
	for _, label := range repro.DefaultMachineRegistry().Labels() {
		urls = append(urls, "/v1/machines/"+label)
	}
	return urls
}

// artefactMultiset is the balanced op multiset one copy of the timed
// sequence holds: each cached rendering as a plain GET twice, once
// accepting gzip and once conditional (so 25% of cached GETs are
// conditional and 25% accept gzip), and each registry listing four
// times as a plain GET.
func artefactMultiset() []op {
	var ops []op
	for _, u := range artefactURLs() {
		ops = append(ops,
			op{Method: "GET", Path: u},
			op{Method: "GET", Path: u, Gzip: true},
			op{Method: "GET", Path: u, Cond: true},
			op{Method: "GET", Path: u})
	}
	for _, u := range machineURLs() {
		for i := 0; i < 4; i++ {
			ops = append(ops, op{Method: "GET", Path: u})
		}
	}
	return ops
}

// genArtefactRead warms up with one shuffled copy of the multiset and
// times artefactCopies more. The seed changes only the order, so every
// seed requests the same mix.
func genArtefactRead(seed int64) sequence {
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(copies int) []op {
		var ops []op
		for i := 0; i < copies; i++ {
			ops = append(ops, artefactMultiset()...)
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
	warm := shuffled(1)
	return sequence{Warmup: warm, Timed: shuffled(artefactCopies)}
}

// ---- campaigns -----------------------------------------------------

// campaignSpec is the JSON body of POST /v1/campaign.
type campaignSpec struct {
	Machines   []string     `json:"machines"`
	Axes       []campaignAx `json:"axes"`
	Threads    []int        `json:"threads"`
	Placements []string     `json:"placements"`
	Precisions []string     `json:"precisions"`
}

type campaignAx struct {
	Axis   string    `json:"axis"`
	Values []float64 `json:"values"`
}

func (s campaignSpec) points() int {
	n := len(s.Machines) * len(s.Threads) * len(s.Placements) * len(s.Precisions)
	for _, ax := range s.Axes {
		n *= len(ax.Values)
	}
	return n
}

func (s campaignSpec) op() op {
	body, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings, ints and finite floats always encodes
	}
	return op{Method: "POST", Path: "/v1/campaign", Accept: "application/x-ndjson",
		Body: string(body), Points: s.points()}
}

// clockGrid is the candidate clock values (GHz) axis values are drawn
// from: 0.500 to 2.499 GHz in MHz steps.
func clockGrid(k int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(0.5+float64(k)/1000, 'f', 3, 64), 64)
	return v
}

const clockGridSize = 2000

const (
	coldWarmup = 4
	coldTimed  = 24
	// coldClocks is the clock values per cold op: 2 bases x 16 clocks x
	// 2 thread counts x 2 placements x 2 precisions = 256 points.
	coldClocks = 16
)

// coldBases are the cold campaigns' base machines.
var coldBases = []string{"SG2042", "SG2044"}

// splitClock reports whether the cold bases derived at clock v (GHz) land
// on different workers of the fabric-cold fleet's ring. The ring hashes
// each derived machine's fingerprint, so which clock values a seed draws
// decides how a campaign's points split over the two workers. Keeping
// only split clocks gives every cold op exactly half its points on each
// worker, for every seed: the seed changes the values, never the
// distributed work.
var splitClock = func() func(v float64) bool {
	var targets []string
	for _, a := range workerAddrs {
		targets = append(targets, "http://"+a)
	}
	ring, err := fabric.NewRing(targets)
	if err != nil {
		panic(err) // two distinct non-empty targets always build a ring
	}
	reg := repro.DefaultMachineRegistry()
	return func(v float64) bool {
		var owners [2]string
		for i, label := range coldBases {
			base, ok := reg.Get(label)
			if !ok {
				panic("cold base " + label + " missing from the registry")
			}
			m, err := base.WithClock(v * 1e9)
			if err != nil {
				panic(err) // every clockGrid value is a positive clock
			}
			if owners[i], err = ring.Owner(m.Fingerprint(), nil); err != nil {
				panic(err) // nothing is excluded
			}
		}
		return owners[0] != owners[1]
	}
}()

// genCampaignCold builds same-shape 256-point campaigns whose clock
// values are drawn without replacement, so no axis value — and no spec —
// appears twice in a run, warm-up included, and every point is a suite
// cache miss. Only split clocks are drawn (see splitClock).
//
// Generating derives machines, which fills the process's derivation
// memo; the in-process replays therefore read the parent's generated
// inputs instead of generating their own.
func genCampaignCold(seed int64) sequence {
	rng := rand.New(rand.NewSource(seed))
	var clocks []float64
	for _, k := range rng.Perm(clockGridSize) {
		if v := clockGrid(k); splitClock(v) {
			clocks = append(clocks, v)
		}
		if len(clocks) == (coldWarmup+coldTimed)*coldClocks {
			break
		}
	}
	var ops []op
	for i := 0; i < coldWarmup+coldTimed; i++ {
		vals := append([]float64(nil), clocks[i*coldClocks:(i+1)*coldClocks]...)
		sort.Float64s(vals)
		ops = append(ops, campaignSpec{
			Machines:   coldBases,
			Axes:       []campaignAx{{Axis: "clock", Values: vals}},
			Threads:    []int{0, 32},
			Placements: []string{"block", "cyclic"},
			Precisions: []string{"f64", "f32"},
		}.op())
	}
	return sequence{Warmup: ops[:coldWarmup], Timed: ops[coldWarmup:]}
}

const (
	overlapWarmup = 4
	overlapTimed  = 48
	// overlapRepeats is the exact number of timed ops that repeat an
	// earlier op byte for byte (a quarter), which the render cache
	// replays.
	overlapRepeats = overlapTimed / 4
	// overlapShape seeds the stream that shapes every overlap sequence.
	overlapShape = 1
)

// overlapPool is the small per-run pool overlap specs choose from.
type overlapPool struct {
	bases      []string
	clocks     []float64
	vectors    []float64
	threads    []int
	placements []string
	precs      []string
}

// pick returns k of n indices, ascending, so specs are canonical.
func pick(rng *rand.Rand, n, k int) []int {
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// genCampaignOverlap builds 64-point campaigns (2 of 3 bases, 4 of 6
// clocks, 2 of 3 vector widths, 2 of 3 thread counts, 2 of 3 placements,
// 1 of 2 precisions) from one pool, so successive campaigns share most
// suite configurations and derived machines. Fresh specs never repeat;
// exactly overlapRepeats timed ops are exact repeats of an earlier op.
//
// The seed draws the pool's six clock values and nothing else: which
// pool entries each op combines, and which ops repeat, come from the
// fixed overlapShape stream. Every seed therefore issues the same shape
// of sharing — the same suite-cache misses and render-cache hits — and
// seeds differ only in values that do not change the work.
func genCampaignOverlap(seed int64) sequence {
	vals := rand.New(rand.NewSource(seed))
	rng := rand.New(rand.NewSource(overlapShape))
	pool := overlapPool{
		bases:      []string{"SG2042", "SG2044", "Rome"},
		vectors:    []float64{128, 256, 512},
		threads:    []int{0, 16, 32},
		placements: []string{"block", "cyclic", "cluster"},
		precs:      []string{"f64", "f32"},
	}
	for _, k := range pick(vals, clockGridSize, 6) {
		pool.clocks = append(pool.clocks, clockGrid(k))
	}
	seen := map[string]bool{}
	fresh := func() op {
		for {
			var s campaignSpec
			for _, i := range pick(rng, len(pool.bases), 2) {
				s.Machines = append(s.Machines, pool.bases[i])
			}
			var clocks, vectors []float64
			for _, i := range pick(rng, len(pool.clocks), 4) {
				clocks = append(clocks, pool.clocks[i])
			}
			for _, i := range pick(rng, len(pool.vectors), 2) {
				vectors = append(vectors, pool.vectors[i])
			}
			s.Axes = []campaignAx{{Axis: "clock", Values: clocks}, {Axis: "vector", Values: vectors}}
			for _, i := range pick(rng, len(pool.threads), 2) {
				s.Threads = append(s.Threads, pool.threads[i])
			}
			for _, i := range pick(rng, len(pool.placements), 2) {
				s.Placements = append(s.Placements, pool.placements[i])
			}
			s.Precisions = []string{pool.precs[rng.Intn(len(pool.precs))]}
			o := s.op()
			if !seen[o.Body] {
				seen[o.Body] = true
				return o
			}
		}
	}
	var warm []op
	for i := 0; i < overlapWarmup; i++ {
		warm = append(warm, fresh())
	}
	// Repeat positions: never the first timed op, so there is always an
	// earlier timed op to repeat besides the warm-up.
	repeat := map[int]bool{}
	for _, i := range pick(rng, overlapTimed-1, overlapRepeats) {
		repeat[i+1] = true
	}
	var timed []op
	for i := 0; i < overlapTimed; i++ {
		if repeat[i] {
			earlier := append(append([]op(nil), warm...), timed...)
			timed = append(timed, earlier[rng.Intn(len(earlier))])
			continue
		}
		timed = append(timed, fresh())
	}
	return sequence{Warmup: warm, Timed: timed}
}

// specOf decodes a campaign op's body.
func specOf(o op) (campaignSpec, error) {
	var s campaignSpec
	err := json.Unmarshal([]byte(o.Body), &s)
	return s, err
}
