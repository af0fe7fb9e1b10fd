package fabric

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro"
)

// sampleKeys returns a deterministic spread of ring keys: seeded-random
// draws plus the edges of the key space.
func sampleKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, 1 << 63}
	for len(keys) < n {
		keys = append(keys, rng.Uint64())
	}
	return keys
}

func ringTargets(n int) []string {
	ts := make([]string, n)
	for i := range ts {
		ts[i] = fmt.Sprintf("http://w%d:8042", i)
	}
	return ts
}

func ownerOf(t *testing.T, r *Ring, key uint64, excluded map[string]bool) string {
	t.Helper()
	o, err := r.Owner(key, excluded)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRingJoinMovesOnlyJoinersArcs is the bounded-churn property on
// join: growing the fleet by one worker may move a key only TO the
// newcomer — every key that keeps an old owner keeps its exact owner,
// so nobody else's warm cache is invalidated.
func TestRingJoinMovesOnlyJoinersArcs(t *testing.T) {
	keys := sampleKeys(4096)
	for _, size := range []int{1, 2, 3, 7} {
		targets := ringTargets(size + 1)
		before, err := NewRing(targets[:size])
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(targets)
		if err != nil {
			t.Fatal(err)
		}
		joiner := targets[size]
		moved := 0
		for _, k := range keys {
			was := ownerOf(t, before, k, nil)
			now := ownerOf(t, after, k, nil)
			if was != now {
				moved++
				if now != joiner {
					t.Fatalf("size %d: key %016x moved %s -> %s, not to joiner %s",
						size, k, was, now, joiner)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("size %d: joiner %s captured no keys", size, joiner)
		}
	}
}

// TestRingLeaveMovesOnlyLeaversArcs is the bounded-churn property on
// leave (exclusion): excluding one worker may move only the keys it
// owned; every other key keeps its exact owner.
func TestRingLeaveMovesOnlyLeaversArcs(t *testing.T) {
	keys := sampleKeys(4096)
	targets := ringTargets(5)
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaver := range targets {
		excluded := map[string]bool{leaver: true}
		for _, k := range keys {
			was := ownerOf(t, r, k, nil)
			now := ownerOf(t, r, k, excluded)
			if was != leaver && now != was {
				t.Fatalf("excluding %s moved key %016x from %s to %s",
					leaver, k, was, now)
			}
			if was == leaver && now == leaver {
				t.Fatalf("excluded %s still owns key %016x", leaver, k)
			}
		}
	}
}

// TestRingRevivalRestoresExactOwnership: excluding then un-excluding a
// worker restores ownership bit-for-bit — a bounced worker takes back
// exactly the arcs it lost.
func TestRingRevivalRestoresExactOwnership(t *testing.T) {
	keys := sampleKeys(2048)
	r, err := NewRing(ringTargets(4))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = ownerOf(t, r, k, nil)
	}
	// Exclusion is stateless on the ring, so "revival" is just asking
	// again without the exclusion set — the assignment must be
	// untouched.
	excluded := map[string]bool{before[0]: true}
	for _, k := range keys {
		ownerOf(t, r, k, excluded) // any answer; must not perturb the ring
	}
	for i, k := range keys {
		if got := ownerOf(t, r, k, nil); got != before[i] {
			t.Fatalf("key %016x owner changed %s -> %s after exclude/revive cycle",
				k, before[i], got)
		}
	}
}

// TestRingListOrderNeverLeaks: a fleet listed in any order owns exactly
// what the same fleet listed in ring order owns.
func TestRingListOrderNeverLeaks(t *testing.T) {
	targets := ringTargets(5)
	batch, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := NewRing([]string{targets[3], targets[1], targets[4], targets[0], targets[2]})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sampleKeys(2048) {
		if got, want := ownerOf(t, shuffled, k, nil), ownerOf(t, batch, k, nil); got != want {
			t.Fatalf("key %016x: shuffled-list owner %s, ring-order owner %s", k, got, want)
		}
	}
}

// TestOwnersDistinctAndOrdered: the replica set is distinct targets,
// leads with Owner's answer, skips exclusions, and caps at the
// surviving fleet size.
func TestOwnersDistinctAndOrdered(t *testing.T) {
	targets := ringTargets(4)
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sampleKeys(512) {
		owners := r.Owners(k, 3, nil)
		if len(owners) != 3 {
			t.Fatalf("key %016x: %d owners, want 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %016x: duplicate replica %s in %v", k, o, owners)
			}
			seen[o] = true
		}
		if first := ownerOf(t, r, k, nil); owners[0] != first {
			t.Fatalf("key %016x: Owners[0]=%s, Owner=%s", k, owners[0], first)
		}
		// Excluding the primary promotes the first successor.
		demoted := r.Owners(k, 3, map[string]bool{owners[0]: true})
		if len(demoted) != 3 || demoted[0] != owners[1] {
			t.Fatalf("key %016x: excluding %s gave %v, want to lead with %s",
				k, owners[0], demoted, owners[1])
		}
		// Asking for more replicas than workers returns the whole fleet.
		if all := r.Owners(k, 10, nil); len(all) != len(targets) {
			t.Fatalf("key %016x: %d owners for n=10, want fleet size %d", k, len(all), len(targets))
		}
	}
}

// TestOwnersAllocatesOnlyTheResult: ranking the fleet for a key costs
// the result slice and nothing else — no candidate array, no sort.
func TestOwnersAllocatesOnlyTheResult(t *testing.T) {
	r, err := NewRing(ringTargets(5))
	if err != nil {
		t.Fatal(err)
	}
	excluded := map[string]bool{ringTargets(5)[2]: true}
	keys := sampleKeys(64)
	for _, n := range []int{1, 3} {
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			r.Owners(keys[i%len(keys)], n, excluded)
			i++
		})
		if allocs > 1 {
			t.Errorf("Owners(n=%d) made %.1f allocations per call, want at most 1", n, allocs)
		}
	}
}

// clockGridGHz is the benchmark generator's candidate clock axis: 2000
// values from 0.5 GHz in 1 MHz steps, rounded to three decimals.
func clockGridGHz(k int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(0.5+float64(k)/1000, 'f', 3, 64), 64)
	return v
}

// TestRendezvousBalancesClockVariants pins the balance on real keys:
// the SG2042 and SG2044 derived at each of the 2000 benchmark clock
// values, over the fleets the repository's benchmark and CI jobs run.
// No worker may own more than 1.10x its fair share, and the benchmark
// pair must split enough clock values across its two workers for the
// cold-campaign generator, which needs 448.
func TestRendezvousBalancesClockVariants(t *testing.T) {
	const clocks = 2000
	reg := repro.DefaultMachineRegistry()
	var keys [clocks][2]uint64
	for k := 0; k < clocks; k++ {
		for j, label := range []string{"SG2042", "SG2044"} {
			base, ok := reg.Get(label)
			if !ok {
				t.Fatalf("%s missing from the registry", label)
			}
			m, err := base.WithClock(clockGridGHz(k) * 1e9)
			if err != nil {
				t.Fatal(err)
			}
			keys[k][j] = m.Fingerprint()
		}
	}
	fleets := [][]string{
		{"http://127.0.0.1:24439", "http://127.0.0.1:24440"},
		{"http://127.0.0.1:18143", "http://127.0.0.1:18144"},
		{"http://127.0.0.1:18153", "http://127.0.0.1:18154", "http://127.0.0.1:18155"},
	}
	for fi, fleet := range fleets {
		r, err := NewRing(fleet)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		split := 0
		for _, pair := range keys {
			a, b := ownerOf(t, r, pair[0], nil), ownerOf(t, r, pair[1], nil)
			counts[a]++
			counts[b]++
			if a != b {
				split++
			}
		}
		fair := float64(2*clocks) / float64(len(fleet))
		busiest := 0
		for _, c := range counts {
			busiest = max(busiest, c)
		}
		skew := float64(busiest) / fair
		t.Logf("fleet %v: busiest worker at %.3fx fair, %d split clocks", fleet, skew, split)
		if skew > 1.10 {
			t.Errorf("fleet %v: busiest worker owns %.3fx its fair share (%v), want <= 1.10", fleet, skew, counts)
		}
		if fi == 0 && split < 448 {
			t.Errorf("fleet %v splits %d clock values across its workers, want >= 448", fleet, split)
		}
	}
}
