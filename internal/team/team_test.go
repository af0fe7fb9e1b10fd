package team

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBoundsPartition(t *testing.T) {
	// Property: Bounds tiles [0,n) exactly — no gaps, no overlaps —
	// for any n and thread count.
	f := func(rawN uint16, rawT uint8) bool {
		n := int(rawN) % 5000
		nt := int(rawT)%64 + 1
		covered := 0
		prevHi := 0
		for tid := 0; tid < nt; tid++ {
			lo, hi := Bounds(n, nt, tid)
			if lo != prevHi {
				return false // gap or overlap
			}
			if hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBoundsBalance(t *testing.T) {
	// Chunk sizes differ by at most one (static schedule).
	for _, n := range []int{1, 7, 64, 1000, 1001} {
		for _, nt := range []int{1, 2, 3, 8, 64} {
			minSz, maxSz := n, 0
			for tid := 0; tid < nt; tid++ {
				lo, hi := Bounds(n, nt, tid)
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
			}
			if maxSz-minSz > 1 {
				t.Errorf("n=%d nt=%d: chunk sizes range [%d,%d]", n, nt, minSz, maxSz)
			}
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	const n = 10_000
	marks := make([]int32, n)
	For(tm, n, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	called := false
	For(tm, 0, func(tid, lo, hi int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestRunExecutesEveryThread(t *testing.T) {
	tm := New(8)
	defer tm.Close()
	var count int64
	seen := make([]int32, 8)
	tm.Run(func(tid int) {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&seen[tid], 1)
	})
	if count != 8 {
		t.Errorf("ran %d workers, want 8", count)
	}
	for tid, s := range seen {
		if s != 1 {
			t.Errorf("tid %d ran %d times", tid, s)
		}
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	// Property: ForSum on a team equals a sequential fold exactly
	// (partials are combined deterministically in thread order over the
	// same static partition, so even float addition is reproducible).
	tm := New(3)
	defer tm.Close()
	f := func(seed int64, rawN uint16) bool {
		n := int(rawN)%3000 + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() - 0.5
		}
		par := ForSum(tm, n, func(tid, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			return s
		})
		// Reference: same partition order, sequential.
		ref := 0.0
		for tid := 0; tid < tm.NThreads(); tid++ {
			lo, hi := Bounds(n, tm.NThreads(), tid)
			s := 0.0
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			ref += s
		}
		return par == ref
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSequentialRunner(t *testing.T) {
	var s Sequential
	if s.NThreads() != 1 {
		t.Error("Sequential should report 1 thread")
	}
	sum := 0
	For(s, 10, func(tid, lo, hi int) {
		if tid != 0 || lo != 0 || hi != 10 {
			t.Errorf("sequential partition = tid %d [%d,%d)", tid, lo, hi)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Errorf("sum = %d", sum)
	}
}

func TestForSumRunnerEquivalence(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i%7) * 0.25
	}
	body := func(tid, lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	}
	seq := ForSum[float64](Sequential{}, len(xs), body)
	par := ForSum[float64](tm, len(xs), body)
	if diff := seq - par; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sequential %v != parallel %v", seq, par)
	}
}

func TestCloseIdempotent(t *testing.T) {
	tm := New(2)
	tm.Close()
	tm.Close() // must not panic
}

func TestManyRegions(t *testing.T) {
	// Stress fork-join reuse: many small regions through one team.
	tm := New(4)
	defer tm.Close()
	var total int64
	for r := 0; r < 500; r++ {
		For(tm, 64, func(tid, lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
	}
	if total != 500*64 {
		t.Errorf("total = %d, want %d", total, 500*64)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}
