// Package memo is the engine's one memoization primitive. The study
// engine evaluates the same configurations over and over (Figure 1's
// SG2042 columns are Figures 4 and 5's baselines, every scaling table
// shares its one-thread row), so suite results, rendered responses,
// campaign plans, the model's uncore halves and compiler decisions are
// all memoized — each through a Map, under one policy:
//
//   - Singleflight: the first caller of a key runs its fill; concurrent
//     callers of the same key wait for that fill and share its result.
//   - Only successes are kept: a fill error goes to the caller that ran
//     the fill and to every waiter, and the entry is dropped so the
//     next Get retries. A panicking fill is dropped the same way: the
//     panic propagates in the caller that ran it, and waiters get
//     ErrFillPanicked.
//   - Bounded on request: with Max > 0, admitting a new key at Max
//     entries evicts an arbitrary one. A caller already holding an
//     evicted entry still gets its result; the key just fills again on
//     its next Get.
//   - Counters: a miss is a lookup that ran the fill and got its
//     return, a value or an error; a hit is a lookup that got its value
//     from the key's existing entry (completed or in flight). A waiter
//     handed a failed fill's error, and a panicking fill, count as
//     neither.
//
// The lock guards only map operations; fills run outside it.
package memo

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrFillPanicked is what a waiter gets when the fill it waited on
// panicked.
var ErrFillPanicked = errors.New("memo: the fill for this key panicked")

// Map memoizes one value per key. The zero Map is empty, unbounded and
// ready to use; a Map must not be copied after first use.
type Map[K comparable, V any] struct {
	// Max bounds the entry count (0: unbounded). Set it before first use.
	Max int

	mu           sync.Mutex
	m            map[K]*entry[V]
	hits, misses atomic.Uint64
}

type entry[V any] struct {
	wg  sync.WaitGroup // released when the fill returns or panics
	v   V
	err error
	// ok flips once the fill has succeeded (or for an entry installed by
	// Put); Range reads it to skip in-flight entries without waiting.
	ok atomic.Bool
}

// Get returns k's value, running fill on the first request for k.
// hit reports whether the key's entry already existed. A value is
// shared by every caller and must be treated as read-only.
func (c *Map[K, V]) Get(k K, fill func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, hit := c.m[k]
	if !hit {
		e = &entry[V]{}
		e.wg.Add(1)
		c.insert(k, e)
	}
	c.mu.Unlock()
	if hit {
		e.wg.Wait()
		if e.err == nil {
			c.hits.Add(1)
		}
	} else {
		c.fill(k, e, fill)
		c.misses.Add(1) // a panicking fill never gets here
	}
	if e.err != nil {
		return v, hit, e.err
	}
	return e.v, hit, nil
}

// fill runs f for e. The deferred release also runs when f panics: the
// entry keeps ErrFillPanicked, is dropped, and its waiters are woken
// while the panic goes on up the filling caller's stack.
func (c *Map[K, V]) fill(k K, e *entry[V], f func() (V, error)) {
	e.err = ErrFillPanicked
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.m[k] == e {
				delete(c.m, k)
			}
			c.mu.Unlock()
		} else {
			e.ok.Store(true)
		}
		e.wg.Done()
	}()
	e.v, e.err = f()
}

// insert maps k to e, evicting an arbitrary entry at the bound. The
// caller holds c.mu.
func (c *Map[K, V]) insert(k K, e *entry[V]) {
	if c.m == nil {
		c.m = make(map[K]*entry[V])
	}
	if c.Max > 0 && len(c.m) >= c.Max {
		for victim := range c.m {
			delete(c.m, victim)
			break
		}
	}
	c.m[k] = e
}

// Put installs an already computed value for k (a restored snapshot,
// say) and reports whether it did: an existing entry, completed or in
// flight, is never overwritten. Put counts as neither hit nor miss.
func (c *Map[K, V]) Put(k K, v V) bool {
	e := &entry[V]{v: v}
	e.ok.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return false
	}
	c.insert(k, e)
	return true
}

// Range calls f for every completed entry. Entries whose fill is still
// running are skipped, never waited on. f runs under the map's lock and
// must not call back into the Map.
func (c *Map[K, V]) Range(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if e.ok.Load() {
			f(k, e.v)
		}
	}
}

// Stats reports lookups so far: hits served from an existing entry, and
// misses that ran the fill, fills that returned an error included.
func (c *Map[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of entries, in-flight fills included.
func (c *Map[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
