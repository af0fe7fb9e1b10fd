package core

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/prec"
)

// FuzzRestoreCache drives the snapshot decoder with arbitrary bytes.
// The decoder must be total: any input either restores cleanly or
// errors — never panics — and a failed restore must leave the cache
// completely untouched (no poisoning). A successful restore must
// re-snapshot to a decodable image that lists the suite's kernel names
// and classes in suite order.
func FuzzRestoreCache(f *testing.F) {
	// Seeds: a real snapshot, its prefixes, and structured corruptions.
	st := NewStudy()
	if _, err := st.RunSuite(mustMachineCfg(machine.SG2042(), 4, prec.F64)); err != nil {
		f.Fatal(err)
	}
	valid, err := st.SnapshotCache()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(append(append([]byte(nil), valid...), valid...))
	if emptySnap, err := NewStudy().SnapshotCache(); err == nil {
		f.Add(emptySnap)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := NewStudy()
		n, err := fresh.RestoreCache(data)
		hits, misses := fresh.CacheStats()
		if hits != 0 || misses != 0 {
			t.Fatalf("RestoreCache touched the hit/miss counters (hits=%d misses=%d)", hits, misses)
		}
		if err != nil {
			if n != 0 {
				t.Fatalf("failed restore reported %d installed entries", n)
			}
			// The cache must still work after a failed restore.
			if _, err := fresh.RunSuite(mustMachineCfg(machine.SG2042(), 1, prec.F64)); err != nil {
				t.Fatalf("study poisoned after failed restore: %v", err)
			}
			return
		}
		// A restore that succeeded must re-snapshot to a stable image:
		// snapshot(restore(x)) round-trips through restore again.
		img, err := fresh.SnapshotCache()
		if err != nil {
			t.Fatalf("snapshot after successful restore: %v", err)
		}
		snapshotParts(t, img)
		again := NewStudy()
		m, err := again.RestoreCache(img)
		if err != nil {
			t.Fatalf("re-restore of re-snapshot: %v", err)
		}
		if m != n {
			t.Fatalf("re-restore installed %d entries, first restore installed %d", m, n)
		}
		img2, err := again.SnapshotCache()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatal("snapshot not stable across restore round-trip")
		}
	})
}
