// Package par is the small concurrency toolkit under the study engine:
// a bounded errgroup-style Group with first-error cancellation, and an
// indexed ForEach worker pool. Callers write results into slot i of a
// pre-sized slice, so output ordering never depends on scheduling and
// the serial (workers <= 1) and parallel paths produce identical
// results. A task that panics fails its group or ForEach with a
// *PanicError instead of taking the process down.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a task panic recovered by Group or ForEach and
// returned as their first error: the value passed to panic and the
// stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task panicked: %v", e.Value)
}

// recovered converts a recover() result into the error it stands for:
// nil when there was no panic.
func recovered(r any) error {
	if r == nil {
		return nil
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// Group runs tasks on a bounded number of goroutines. The first error
// wins: it is returned from Wait, and tasks scheduled (or dequeued)
// after it are dropped.
type Group struct {
	sem  chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	err  error
	stop atomic.Bool
}

// NewGroup returns a Group running at most workers tasks concurrently;
// workers < 1 means unbounded.
func NewGroup(workers int) *Group {
	g := &Group{}
	if workers > 0 {
		g.sem = make(chan struct{}, workers)
	}
	return g
}

// Go schedules f on the group, blocking while all workers are busy. If
// a previous task has already failed, f is silently dropped — the
// errgroup-style cancellation that lets a failing experiment stop the
// rest of the batch. A panic in f fails the group with a *PanicError.
func (g *Group) Go(f func() error) {
	if g.stop.Load() {
		return
	}
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if g.sem != nil {
			defer func() { <-g.sem }()
		}
		defer func() {
			if err := recovered(recover()); err != nil {
				g.fail(err)
			}
		}()
		if g.stop.Load() {
			return
		}
		if err := f(); err != nil {
			g.fail(err)
		}
	}()
}

// fail records err if it is the group's first and stops the group.
func (g *Group) fail(err error) {
	g.once.Do(func() { g.err = err })
	g.stop.Store(true)
}

// Cancelled reports whether a task has failed; long-running tasks may
// poll it to bail out early.
func (g *Group) Cancelled() bool { return g.stop.Load() }

// Wait blocks until every scheduled task has finished and returns the
// first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}

// ForEach invokes fn(i) for every i in [0, n) using at most workers
// goroutines and returns the first error; remaining indices are skipped
// once a call fails or panics (a panic is returned as a *PanicError).
// With workers <= 1 (or n <= 1) it runs inline, in order, on the
// calling goroutine — no scheduling, no goroutines — so a
// deterministic fn gives bit-identical results on both paths.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		return serial(n, fn)
	}
	if workers > n {
		workers = n
	}
	g := NewGroup(workers)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for {
				i := int(next.Add(1)) - 1
				if i >= n || g.Cancelled() {
					return nil
				}
				if err := fn(i); err != nil {
					return err
				}
			}
		})
	}
	return g.Wait()
}

// serial is ForEach's inline path, with the same panic containment as
// a pool goroutine.
func serial(n int, fn func(i int) error) (err error) {
	defer func() {
		if perr := recovered(recover()); perr != nil {
			err = perr
		}
	}()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
