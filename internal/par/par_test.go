package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachSerialMatchesParallel(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 4, 16, 200} {
		out := make([]int, n)
		err := ForEach(n, workers, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, out[i])
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for n=0")
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(50, 4, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestForEachSerialStopsAtFirstError(t *testing.T) {
	var calls int
	err := ForEach(50, 1, func(i int) error {
		calls++
		if i == 3 {
			return fmt.Errorf("stop at %d", i)
		}
		return nil
	})
	if err == nil || calls != 4 {
		t.Fatalf("err=%v calls=%d, want error after 4 calls", err, calls)
	}
}

func TestForEachCancellationSkipsRemaining(t *testing.T) {
	// With 1000 items on 2 workers, an early failure must prevent most
	// of the tail from running.
	var calls atomic.Int64
	err := ForEach(1000, 2, func(i int) error {
		calls.Add(1)
		if i < 2 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if c := calls.Load(); c > 100 {
		t.Errorf("%d calls ran after early cancellation", c)
	}
}

func TestForEachEveryIndexExactlyOnce(t *testing.T) {
	const n = 500
	counts := make([]atomic.Int32, n)
	if err := ForEach(n, 8, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestForEachBoundsConcurrency: no more than workers calls run at once
// (the engine's render fan-out relies on this bound).
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEach(30, workers, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds limit %d", p, workers)
	}
}

// mustPanicError asserts err is a *PanicError carrying the stack of
// the panicking task, and returns it.
func mustPanicError(t *testing.T, err error) *PanicError {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(string(pe.Stack), "par_test.go") {
		t.Fatalf("PanicError.Stack does not reach the panicking task:\n%s", pe.Stack)
	}
	return pe
}

// TestForEachRecoversPanic: on the parallel and the serial path alike,
// a panic in fn is returned as a *PanicError, and the worker whose task
// panicked claims no further index. Every index from 3 on panics, so
// each worker stops at the first of them it claims: at most 3+workers
// calls run, however the workers are scheduled. The serial path stops
// at index 3 itself. (A bound on how soon one panic stops its siblings
// would rest on timing: while the panicking thread is preempted before
// its recover runs, a sibling can drain every trivial index.)
func TestForEachRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var calls atomic.Int64
			err := ForEach(1000, workers, func(i int) error {
				calls.Add(1)
				if i >= 3 {
					panic(i)
				}
				return nil
			})
			pe := mustPanicError(t, err)
			if v, ok := pe.Value.(int); !ok || v < 3 || v >= 3+workers {
				t.Errorf("PanicError.Value = %v, want one of the first %d panicking indices from 3", pe.Value, workers)
			}
			if c := calls.Load(); c > int64(3+workers) {
				t.Errorf("%d calls ran, want at most %d", c, 3+workers)
			}
		})
	}
}
