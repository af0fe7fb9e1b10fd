package core

// Suite-run memoization. The paper's experiments re-evaluate the same
// (machine, threads, placement, precision, compiler) configuration over
// and over — Figure 1's SG2042 columns are Figure 4/5's baselines, the
// scaling tables share their one-thread baseline with every row, and a
// long-lived engine serving experiment requests replays all of them.
// Because RunSuite seeds its measurement noise from the configuration
// (Seed ^ configSeed(cfg)), a cached result is bit-identical to a fresh
// evaluation, so memoization is purely an execution strategy.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/autovec"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
)

// suiteKey canonically identifies one RunSuite evaluation: every Config
// field that feeds the performance model or the noise seeding, plus the
// Study knobs (Model/Runs/Noise/Seed), so re-tuning a Study between
// calls — changing a knob or swapping in a different Model — misses the
// old entries instead of serving stale measurements. The one mutation
// the key cannot see is editing a Model's Calibration in place after
// its first use (Calibration holds a map and cannot be part of the
// key); assign a fresh Model instead, or set NoCache.
type suiteKey struct {
	model      *perfmodel.Model
	machine    string
	machineFP  uint64
	threads    int
	placement  placement.Policy
	prec       prec.Precision
	compiler   autovec.Compiler
	mode       autovec.Mode
	scalarOnly bool
	problemN   int
	runs       int
	noise      float64
	seed       int64
}

// machineFingerprint folds every Machine parameter into one hash so the
// cache distinguishes machines by their full parameter set, not just
// their label: a copied preset with a tweaked core count or cache size
// must miss, never collide with the stock entry. Pointer identity
// would be wrong the other way round — the presets return a fresh
// *Machine per call, so identical machines would never hit. The hash
// itself is machine.Fingerprint's hand-rolled field walk: this sits on
// the hot path of every cache lookup, and the reflection-based
// formatting it replaced was ~90 allocations per key.
func machineFingerprint(m *machine.Machine) uint64 {
	if m == nil {
		return 0
	}
	return m.Fingerprint()
}

// suiteKeyFor canonicalizes cfg (Runs clamps at 1 like the evaluation
// does).
func (st *Study) suiteKeyFor(cfg perfmodel.Config) suiteKey {
	return st.suiteKeyFP(cfg, machineFingerprint(cfg.Machine))
}

// suiteKeyFP is suiteKeyFor with the machine fingerprint supplied by a
// caller that has already computed it — the campaign planner hashes
// each derived machine once and keys every point's lookups off that.
func (st *Study) suiteKeyFP(cfg perfmodel.Config, fp uint64) suiteKey {
	label := ""
	if cfg.Machine != nil {
		label = cfg.Machine.Label
	}
	runs := st.Runs
	if runs < 1 {
		runs = 1
	}
	return suiteKey{
		model:      st.Model,
		machine:    label,
		machineFP:  fp,
		threads:    cfg.Threads,
		placement:  cfg.Placement,
		prec:       cfg.Prec,
		compiler:   cfg.Compiler,
		mode:       cfg.Mode,
		scalarOnly: cfg.ScalarOnly,
		problemN:   cfg.ProblemN,
		runs:       runs,
		noise:      st.Noise,
		seed:       st.Seed,
	}
}

// suiteShards is the shard count of the suite cache — a power of two so
// shard selection is a mask. 16 shards keep the per-shard critical
// section (one map lookup) contention-free at any realistic request
// concurrency while costing a few hundred bytes of fixed overhead.
const suiteShards = 16

// suiteCache memoizes RunSuite results for one Study, sharded across
// suiteShards mutexes keyed by a hash of the canonical suite key (the
// machine fingerprint is the entropy source: it already folds every
// hardware parameter). Entries are created under their shard's mutex
// but computed outside it through a sync.Once (singleflight), so
// concurrent experiment constructors that need the same configuration
// share a single evaluation instead of racing to duplicate it — while
// lookups for different configurations no longer serialize on one lock.
type suiteCache struct {
	shards [suiteShards]suiteShard
}

type suiteShard struct {
	mu      sync.Mutex
	entries map[suiteKey]*suiteEntry
	hits    uint64
	misses  uint64
}

// suiteEntry is one memoized configuration. secs holds its per-kernel
// seconds in suite.All() order and nothing else: the kernel names and
// classes are the suite's own, the same for every entry, so they are
// joined back in only where Measurements are asked for (RunSuite,
// snapshot encoding). A 64-kernel entry is one 512-byte array with no
// pointers for the GC to scan. The slice is never written after once
// completes, so readers share it without copying.
type suiteEntry struct {
	once sync.Once
	secs []float64
	err  error
	// done flips (atomically, after secs/err are written inside once)
	// when the entry's evaluation has completed; the snapshot walk reads
	// it to skip entries still in flight without blocking on them.
	done atomic.Bool
}

// shardFor mixes the key's discriminating fields with FNV-1a. The model
// pointer is deliberately left out (one Study, one Model — no entropy),
// as is the label (the fingerprint already covers the machine).
func (c *suiteCache) shardFor(k suiteKey) *suiteShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(k.machineFP)
	mix(uint64(k.threads))
	mix(uint64(k.placement))
	mix(uint64(k.prec))
	mix(uint64(k.compiler))
	mix(uint64(k.mode))
	if k.scalarOnly {
		mix(1)
	}
	mix(uint64(k.problemN))
	mix(uint64(k.runs))
	mix(math.Float64bits(k.noise))
	mix(uint64(k.seed))
	return &c.shards[h&(suiteShards-1)]
}

func (c *suiteCache) entry(k suiteKey) *suiteEntry {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		// Sized so a typical engine's working set (a few dozen configs
		// spread over 16 shards) never grows the map.
		s.entries = make(map[suiteKey]*suiteEntry, 8)
	}
	e, ok := s.entries[k]
	if !ok {
		e = &suiteEntry{}
		s.entries[k] = e
		s.misses++
	} else {
		s.hits++
	}
	return e
}

// snapshotEntry is one completed, successful cache entry — the unit the
// warm-cache snapshot (snapshot.go) serializes.
type snapshotEntry struct {
	key  suiteKey
	secs []float64
}

// snapshotEntries collects every completed, successful entry. Entries
// whose evaluation is still in flight (or failed) are skipped: the
// walk holds only the shard mutexes, never an entry's once, so a
// snapshot during live traffic cannot deadlock or block evaluation.
func (c *suiteCache) snapshotEntries() []snapshotEntry {
	var out []snapshotEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if !e.done.Load() || e.err != nil {
				continue
			}
			out = append(out, snapshotEntry{key: k, secs: e.secs})
		}
		s.mu.Unlock()
	}
	return out
}

// install seeds the cache with an already-evaluated entry (a restored
// snapshot). An existing entry for the key is never overwritten —
// whatever is cached was evaluated (or restored) first and is
// bit-identical anyway. The entry's once is consumed so a later
// RunSuite lookup serves it as an ordinary hit instead of
// re-evaluating over it. Installs count toward neither hits nor
// misses: the counters keep meaning "lookups served vs evaluated".
// The cache takes ownership of secs.
func (c *suiteCache) install(k suiteKey, secs []float64) bool {
	e := &suiteEntry{}
	e.once.Do(func() { e.secs = secs })
	e.done.Store(true)
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		s.entries = make(map[suiteKey]*suiteEntry)
	}
	if _, ok := s.entries[k]; ok {
		return false
	}
	s.entries[k] = e
	return true
}

// stats sums the per-shard counters.
func (c *suiteCache) stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// CacheStats reports memoized RunSuite lookups so far: hits served from
// the cache and misses that evaluated the suite, summed across shards.
func (st *Study) CacheStats() (hits, misses uint64) {
	if st.cache == nil {
		return 0, 0
	}
	return st.cache.stats()
}
