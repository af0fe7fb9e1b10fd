package core

import (
	"math"
	"math/rand"
	"testing"
)

// noiseEdgeSeeds are the seeds where rngSource.Seed's reduction
// branches: zero and its substitute, negatives, multiples of the
// Lehmer modulus and their neighbours, and the int64 extremes.
var noiseEdgeSeeds = func() []int64 {
	seeds := []int64{0, 1, -1, 2, zeroSeedSub, -zeroSeedSub,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		math.MaxInt32, math.MinInt32, 42}
	for _, k := range []int64{1, 2, 3, -1, -2, 1 << 20, -(1 << 20), math.MaxInt64 / lehmerMod, math.MinInt64 / lehmerMod} {
		m := k * lehmerMod
		seeds = append(seeds, m-1, m, m+1)
	}
	return seeds
}()

// noiseDrawsPerSeed runs each stream well past the feed (334) and tap
// (607) cursor wraps.
const noiseDrawsPerSeed = 2000

// checkNoiseSource compares n raw outputs and n normal draws of the
// fast source against math/rand's for one seed.
func checkNoiseSource(t *testing.T, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	var src noiseSource
	src.Seed(seed)
	for i := 0; i < n; i++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand %#x", seed, i, got, want)
		}
	}
	refRand := rand.New(rand.NewSource(seed))
	noise := seededNoise(seed)
	defer noisePool.Put(noise)
	for i := 0; i < n; i++ {
		got, want := noise.rng.NormFloat64(), refRand.NormFloat64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: NormFloat64 #%d = %v, math/rand %v", seed, i, got, want)
		}
	}
}

func TestNoiseSourceMatchesMathRand(t *testing.T) {
	for _, seed := range noiseEdgeSeeds {
		checkNoiseSource(t, seed, noiseDrawsPerSeed)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		checkNoiseSource(t, r.Int63()-r.Int63(), noiseDrawsPerSeed)
	}
}

// TestNoiseSourceReseed pins the pooled reuse: reseeding a source that
// has already drawn must restart the stream from scratch.
func TestNoiseSourceReseed(t *testing.T) {
	var src noiseSource
	src.Seed(3)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	src.Seed(5)
	ref := rand.NewSource(5).(rand.Source64)
	for i := 0; i < noiseDrawsPerSeed; i++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("reseeded Uint64 #%d = %#x, math/rand %#x", i, got, want)
		}
	}
}

func TestSeededNoiseAllocates(t *testing.T) {
	noisePool.Put(seededNoise(1)) // fill the pool
	allocs := testing.AllocsPerRun(100, func() {
		noise := seededNoise(12345)
		noise.rng.NormFloat64()
		noisePool.Put(noise)
	})
	if allocs > 0 {
		t.Errorf("seeding a pooled noise generator allocated %.1f times", allocs)
	}
}

func FuzzNoiseSource(f *testing.F) {
	for _, seed := range noiseEdgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkNoiseSource(t, seed, int(n%4096))
	})
}
