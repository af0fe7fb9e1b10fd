package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// N concurrent first callers of one key share a single fill.
func TestGetSingleflight(t *testing.T) {
	var c Map[string, int]
	var fills atomic.Int32
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	results := make(chan int, callers)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Get("k", func() (int, error) {
				fills.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	// Let the callers pile up on the in-flight fill before it returns.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 7 {
			t.Errorf("caller got %d, want 7", v)
		}
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("%d fills for one key, want 1", n)
	}
	if hits, misses := c.Stats(); misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
}

// A fill error reaches the caller, is not kept, and the next Get fills
// again; each Get that ran the fill counts a miss, failed or not.
func TestGetErrorIsRetried(t *testing.T) {
	var c Map[string, int]
	boom := errors.New("boom")
	if _, _, err := c.Get("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("first Get err = %v, want boom", err)
	}
	if n := c.Len(); n != 0 {
		t.Errorf("a failed fill left %d entries", n)
	}
	v, hit, err := c.Get("k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 || hit {
		t.Fatalf("retry = (%d, %v, %v), want (3, false, nil)", v, hit, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d/%d, want 0 hits / 2 misses", hits, misses)
	}
}

// A waiter sharing a failed fill gets its error and counts as neither
// hit nor miss; the caller that ran the fill counts the one miss.
func TestGetErrorWaiterCountsNothing(t *testing.T) {
	var c Map[string, int]
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	filler := make(chan error, 1)
	go func() {
		_, _, err := c.Get("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		filler <- err
	}()
	<-started
	// Let the waiter join the in-flight fill before it fails.
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	filled := false
	_, hit, err := c.Get("k", func() (int, error) { filled = true; return 1, nil })
	if ferr := <-filler; ferr != boom {
		t.Fatalf("filler err = %v, want boom", ferr)
	}
	if filled {
		t.Skip("the waiter arrived after the failed fill was dropped")
	}
	if !hit || err != boom {
		t.Errorf("waiter = (hit %v, %v), want (true, boom)", hit, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
}

// A panicking fill propagates in its caller, hands waiters an error
// instead of a zero value, and leaves no entry behind.
func TestGetPanicDropsEntry(t *testing.T) {
	var c Map[string, int]
	started := make(chan struct{})
	type result struct {
		v      int
		err    error
		filled bool
	}
	waiter := make(chan result, 1)
	go func() {
		<-started
		filled := false
		v, _, err := c.Get("k", func() (int, error) { filled = true; return 1, nil })
		waiter <- result{v, err, filled}
	}()
	func() {
		defer func() {
			if r := recover(); r != "fill blew up" {
				t.Errorf("recovered %v, want the fill's panic", r)
			}
		}()
		c.Get("k", func() (int, error) {
			close(started)
			// Let the waiter join the in-flight fill.
			time.Sleep(20 * time.Millisecond)
			panic("fill blew up")
		})
	}()
	// The waiter either shared the panicked fill (and must see the
	// error) or arrived after the entry was dropped and filled itself.
	r := <-waiter
	if r.filled {
		if r.err != nil || r.v != 1 {
			t.Errorf("waiter's own fill = (%d, %v), want (1, nil)", r.v, r.err)
		}
	} else if r.err != ErrFillPanicked {
		t.Errorf("waiter on a panicked fill = (%d, %v), want ErrFillPanicked", r.v, r.err)
	}
	if !r.filled {
		if n := c.Len(); n != 0 {
			t.Errorf("a panicked fill left %d entries", n)
		}
	}
}

// At the bound a new key evicts an old one: the size never passes Max
// and the newest key is served from the map.
func TestGetBounded(t *testing.T) {
	c := Map[int, int]{Max: 16}
	for i := range c.Max + 50 {
		if _, _, err := c.Get(i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > c.Max {
			t.Fatalf("after %d keys Len = %d, want <= %d", i+1, n, c.Max)
		}
	}
	newest := c.Max + 49
	v, hit, err := c.Get(newest, func() (int, error) { return -1, nil })
	if err != nil || !hit || v != newest {
		t.Errorf("newest key = (%d, %v, %v), want (%d, true, nil)", v, hit, err, newest)
	}
}

// Put installs without overwriting and counts as neither hit nor miss;
// a later Get serves the installed value as a hit.
func TestPutNeverOverwrites(t *testing.T) {
	var c Map[string, int]
	if !c.Put("k", 1) {
		t.Fatal("Put into an empty map refused")
	}
	if c.Put("k", 2) {
		t.Error("Put overwrote an existing entry")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Put counted: %d hits / %d misses", hits, misses)
	}
	v, hit, err := c.Get("k", func() (int, error) { return 3, nil })
	if err != nil || !hit || v != 1 {
		t.Errorf("Get = (%d, %v, %v), want the installed (1, true, nil)", v, hit, err)
	}
}

// Range visits completed entries only and never waits on a fill that
// is still running.
func TestRangeSkipsInFlight(t *testing.T) {
	var c Map[string, int]
	c.Put("done", 1)
	started := make(chan struct{})
	release := make(chan struct{})
	filled := make(chan struct{})
	go func() {
		c.Get("blocked", func() (int, error) {
			close(started)
			<-release
			return 2, nil
		})
		close(filled)
	}()
	<-started
	seen := map[string]int{}
	ranged := make(chan struct{})
	go func() {
		c.Range(func(k string, v int) { seen[k] = v })
		close(ranged)
	}()
	select {
	case <-ranged:
	case <-time.After(5 * time.Second):
		t.Fatal("Range waited on an in-flight fill")
	}
	if len(seen) != 1 || seen["done"] != 1 {
		t.Errorf("Range saw %v, want only the completed entry", seen)
	}
	close(release)
	<-filled
	n := 0
	c.Range(func(string, int) { n++ })
	if n != 2 {
		t.Errorf("Range visited %d entries after the fill completed, want 2", n)
	}
}
