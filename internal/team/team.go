// Package team is a small OpenMP-like fork-join runtime on goroutines.
// The RAJAPerf kernels in internal/kernels use it to run their parallel
// variants on the host, mirroring how the paper runs the C++ suite with
// OpenMP: a fixed team of workers, static loop partitioning, and
// fork-join semantics per parallel region (each For call is one
// region, like one `#pragma omp parallel for`).
//
// Workers are persistent: a Team spins up its goroutines once and
// dispatches regions to them over channels, so per-region overhead
// mimics an OpenMP runtime rather than paying goroutine spawn costs on
// every loop.
package team

import (
	"fmt"
	"sync"
)

// Team is a fixed-size group of worker goroutines.
type Team struct {
	n       int
	work    []chan func(tid int)
	done    chan struct{}
	wg      sync.WaitGroup
	closed  bool
	closeMu sync.Mutex
}

// New creates a team of n workers (n >= 1). The caller owns the team
// and must Close it.
func New(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("team: invalid size %d", n))
	}
	t := &Team{
		n:    n,
		work: make([]chan func(tid int), n),
		done: make(chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		t.work[i] = make(chan func(tid int))
		t.wg.Add(1)
		go t.worker(i)
	}
	return t
}

func (t *Team) worker(tid int) {
	defer t.wg.Done()
	for f := range t.work[tid] {
		f(tid)
		t.done <- struct{}{}
	}
}

// Close shuts the workers down. Idempotent.
func (t *Team) Close() {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, ch := range t.work {
		close(ch)
	}
	t.wg.Wait()
}

// Run executes f(tid) on every worker and waits for all of them: the
// bare `#pragma omp parallel` region.
func (t *Team) Run(f func(tid int)) {
	for i := 0; i < t.n; i++ {
		t.work[i] <- f
	}
	for i := 0; i < t.n; i++ {
		<-t.done
	}
}

// Bounds returns the static-partition [lo,hi) range of thread tid for a
// loop of n iterations over nthreads, matching OpenMP's static schedule
// (remainder spread over the leading threads).
func Bounds(n, nthreads, tid int) (lo, hi int) {
	chunk := n / nthreads
	rem := n % nthreads
	if tid < rem {
		lo = tid * (chunk + 1)
		hi = lo + chunk + 1
		return lo, hi
	}
	lo = rem*(chunk+1) + (tid-rem)*chunk
	hi = lo + chunk
	return lo, hi
}

// Sequential is a 1-thread team that runs regions inline, so kernel code
// can use one code path for both sequential and parallel execution
// without goroutine overhead in the sequential case.
type Sequential struct{}

// Runner abstracts Team and Sequential for kernel code.
type Runner interface {
	// NThreads returns the worker count (1 for Sequential).
	NThreads() int
	// Region runs f(tid) for each thread id and waits.
	Region(f func(tid int))
}

// NThreads implements Runner.
func (t *Team) NThreads() int { return t.n }

// Region implements Runner.
func (t *Team) Region(f func(tid int)) { t.Run(f) }

// NThreads implements Runner.
func (Sequential) NThreads() int { return 1 }

// Region implements Runner.
func (Sequential) Region(f func(tid int)) { f(0) }

// For runs body(tid, lo, hi) over a static partition of [0,n) on any
// Runner: the `#pragma omp parallel for schedule(static)` region.
func For(r Runner, n int, body func(tid, lo, hi int)) {
	if n <= 0 {
		return
	}
	nt := r.NThreads()
	r.Region(func(tid int) {
		lo, hi := Bounds(n, nt, tid)
		if lo < hi {
			body(tid, lo, hi)
		}
	})
}

// ForSum is the Runner-generic sum reduction.
func ForSum[T ~int64 | ~float32 | ~float64](r Runner, n int, body func(tid, lo, hi int) T) T {
	nt := r.NThreads()
	partial := make([]T, nt)
	For(r, n, func(tid, lo, hi int) {
		partial[tid] = body(tid, lo, hi)
	})
	var sum T
	for _, p := range partial {
		sum += p
	}
	return sum
}
