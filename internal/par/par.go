// Package par is the small concurrency toolkit under the study engine:
// an indexed ForEach worker pool with first-error cancellation. Callers
// write results into slot i of a pre-sized slice, so output ordering
// never depends on scheduling and the serial (workers <= 1) and
// parallel paths produce identical results. A task that panics fails
// ForEach with a *PanicError instead of taking the process down.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a task panic recovered by ForEach and returned as its
// first error: the value passed to panic and the stack of the
// goroutine that panicked.
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
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		stop  atomic.Bool
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Stop the pool before building the error: debug.Stack
					// is slow, and until stop is set the sibling workers keep
					// dequeuing indices.
					stop.Store(true)
					fail(recovered(r))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
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
