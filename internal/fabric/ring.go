package fabric

import "fmt"

// Ring assigns keys to worker targets by rendezvous (highest-random-
// weight) hashing: a key's score on a worker is splitmix64(key ^
// fnv1a(target)), and the key's owner is the non-excluded worker with
// the highest score. Keys are the campaign grid's machine fingerprints.
// Every worker scores every key independently of the others, so
// excluding a dead worker moves only the keys it owned, adding a worker
// moves keys only to the newcomer, and the assignment never depends on
// the order targets were listed or joined in.
type Ring struct {
	targets []string
	hashes  []uint64 // fnv1a(targets[i])
}

// NewRing builds a ring over the given worker targets. Targets must be
// non-empty and unique — an assignment must never silently halve
// because one worker was listed twice.
func NewRing(targets []string) (*Ring, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("fabric: ring needs at least one worker")
	}
	r := &Ring{
		targets: make([]string, 0, len(targets)),
		hashes:  make([]uint64, 0, len(targets)),
	}
	for _, t := range targets {
		if t == "" {
			return nil, fmt.Errorf("fabric: empty worker target")
		}
		if r.index(t) >= 0 {
			return nil, fmt.Errorf("fabric: worker %q listed twice", t)
		}
		r.targets = append(r.targets, t)
		r.hashes = append(r.hashes, fnv1a(t))
	}
	return r, nil
}

// index returns the position of target in the ring, or -1.
func (r *Ring) index(target string) int {
	for i, t := range r.targets {
		if t == target {
			return i
		}
	}
	return -1
}

// Owner returns the worker owning the key: the highest-scoring
// non-excluded worker. It errors only when every worker is excluded.
func (r *Ring) Owner(key uint64, excluded map[string]bool) (string, error) {
	i := r.next(key, excluded, -1)
	if i < 0 {
		return "", fmt.Errorf("fabric: all workers excluded")
	}
	return r.targets[i], nil
}

// Owners returns up to n distinct non-excluded workers ordered by the
// key's score, highest first (ties by target): the key's owner, then
// the worker that would own it were the owner excluded, and so on — the
// replica set `-replicas n` dispatches each point to. Fewer than n
// workers come back when the surviving fleet is smaller.
func (r *Ring) Owners(key uint64, n int, excluded map[string]bool) []string {
	owners := make([]string, 0, min(max(n, 0), len(r.targets)))
	for prev := -1; len(owners) < n; {
		prev = r.next(key, excluded, prev)
		if prev < 0 {
			break
		}
		owners = append(owners, r.targets[prev])
	}
	return owners
}

// next returns the index of the highest-ranked non-excluded worker that
// ranks strictly below worker prev for the key (prev < 0: the top
// worker), or -1 when none is left. Rank is score descending, then
// target ascending; targets are unique, so the order is total.
func (r *Ring) next(key uint64, excluded map[string]bool, prev int) int {
	var prevScore uint64
	if prev >= 0 {
		prevScore = splitmix64(key ^ r.hashes[prev])
	}
	best, bestScore := -1, uint64(0)
	for i, t := range r.targets {
		if excluded[t] {
			continue
		}
		s := splitmix64(key ^ r.hashes[i])
		if prev >= 0 && !ranksAbove(prevScore, r.targets[prev], s, t) {
			continue
		}
		if best < 0 || ranksAbove(s, t, bestScore, r.targets[best]) {
			best, bestScore = i, s
		}
	}
	return best
}

// ranksAbove reports whether (score a, target at) outranks (b, bt).
func ranksAbove(a uint64, at string, b uint64, bt string) bool {
	return a > b || (a == b && at < bt)
}

// splitmix64 is the SplitMix64 finalizer: a bijective mix that turns
// the XOR of a key and a target hash into a well-spread score.
func splitmix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a is the 64-bit FNV-1a of s — the same hash family the machine
// fingerprint uses, hand-rolled so the assignment is a frozen part of
// the fabric protocol rather than an import detail.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
