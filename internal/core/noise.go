package core

// Measurement-noise source. runSuiteUncached seeds one generator per
// evaluated configuration, and a cold campaign's derived machine labels
// make every point's seed new, so seeding cost is paid once per point.
// math/rand's own source derives its 607-word lagged-Fibonacci state
// from a serial chain of 1841 Lehmer steps, each a division, and is a
// fresh 4.9 KB allocation per rand.NewSource. noiseSource is a
// rand.Source64 that reproduces that source exactly: the same state,
// hence the same Int63/Uint64 stream, hence — drawn through the
// stdlib's own rand.Rand — the same NormFloat64 values, bit for bit.
// Only the seeding differs: every chain value x_k = 48271^k * x_0 mod
// (2^31-1) comes straight from a precomputed power table, the 1841
// products are independent of one another, and the modulus is reduced
// Mersenne-style without dividing. Sources are pooled, so a seeding
// allocates nothing.

import (
	"math/rand"
	"sync"
)

// The parameters of math/rand's additive lagged-Fibonacci generator
// (rng.go): state length, tap distance, and the Lehmer modulus and
// multiplier its seeding chain steps with.
const (
	rngLen      = 607
	rngTap      = 273
	lehmerMod   = 1<<31 - 1
	lehmerMul   = 48271
	seedWarmup  = 20       // chain steps discarded before vec[0]
	zeroSeedSub = 89482311 // math/rand's substitute for a zero seed
)

// noiseSource is a rand.Source64 whose output stream equals
// rand.NewSource's for every seed.
type noiseSource struct {
	tap, feed int
	vec       [rngLen]int64
}

var (
	// seedPowers[i][j] is 48271^(seedWarmup+1+3i+j) mod (2^31-1): the
	// multiplier taking the seeding chain's start to the j-th of the
	// three values that make up state word i.
	seedPowers [rngLen][3]uint64
	// rngCooked is math/rand's table of per-word seeding constants
	// (its rngCooked), recovered from the stdlib's own output by
	// recoverCooked rather than copied.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= seedWarmup; k++ {
		p = mulMod(p, lehmerMul)
	}
	for i := range seedPowers {
		for j := range seedPowers[i] {
			p = mulMod(p, lehmerMul)
			seedPowers[i][j] = p
		}
	}
	rngCooked = recoverCooked()
}

// mulMod returns a*b mod 2^31-1 for a, b < 2^31, folding the 62-bit
// product's high bits onto its low ones (2^31 ≡ 1) instead of dividing.
func mulMod(a, b uint64) uint64 {
	t := a * b
	r := t&lehmerMod + t>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// chainStart maps a seed onto the seeding chain's starting value in
// [1, 2^31-2], as rngSource.Seed does.
func chainStart(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeedSub
	}
	return uint64(seed)
}

// seedState fills vec with the state math/rand seeds from seed, given
// its cooked table; with an all-zero table it is the seeding chain's
// contribution alone.
func seedState(seed int64, cooked *[rngLen]int64, vec *[rngLen]int64) {
	x := chainStart(seed)
	for i := range vec {
		w := &seedPowers[i]
		vec[i] = int64(mulMod(w[0], x)<<40^mulMod(w[1], x)<<20^mulMod(w[2], x)) ^ cooked[i]
	}
}

// recoverCooked reads math/rand's cooked table back out of a stdlib
// source. The first rngLen outputs overwrite each state word exactly
// once, so together they are the state after rngLen steps. Undoing the
// steps newest-first (each added the then-current tap word, which the
// step itself left unchanged) yields the freshly seeded state, and
// XORing out the seeding chain leaves the cooked constants.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var s noiseSource
	s.tap, s.feed = 0, rngLen-rngTap
	for n := 0; n < rngLen; n++ {
		s.step()
		s.vec[s.feed] = int64(src.Uint64())
	}
	for n := 0; n < rngLen; n++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % rngLen
		s.feed = (s.feed + 1) % rngLen
	}
	var zero, chain, cooked [rngLen]int64
	seedState(seed, &zero, &chain)
	for i := range cooked {
		cooked[i] = s.vec[i] ^ chain[i]
	}
	return cooked
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *noiseSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seedState(seed, &rngCooked, &s.vec)
}

// step advances the tap and feed cursors one position backwards,
// wrapping as rngSource does.
func (s *noiseSource) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 returns the next value of the stream.
func (s *noiseSource) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with the top bit cleared.
func (s *noiseSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// noiseRand pairs a source with the rand.Rand that draws through it.
type noiseRand struct {
	src noiseSource
	rng *rand.Rand
}

var noisePool = sync.Pool{New: func() any {
	n := &noiseRand{}
	n.rng = rand.New(&n.src)
	return n
}}

// seededNoise returns a pooled generator whose draws equal those of
// rand.New(rand.NewSource(seed)). Return it with noisePool.Put.
func seededNoise(seed int64) *noiseRand {
	n := noisePool.Get().(*noiseRand)
	n.src.Seed(seed)
	return n
}
