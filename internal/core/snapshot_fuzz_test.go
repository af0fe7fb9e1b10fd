package core

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/prec"
	"repro/internal/suite"
	"repro/internal/wire"
)

// FuzzRestoreCache drives the snapshot decoder with arbitrary bytes.
// The decoder must be total: any input either restores cleanly or
// errors — never panics — and a failed restore must leave the cache
// completely untouched (no poisoning). A successful restore must
// re-snapshot to a decodable image whose every entry lists the suite's
// kernel names and classes in suite order.
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
	f.Add([]byte("SG42"))
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
		checkSuiteRows(t, img)
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

// checkSuiteRows fails unless every measurement frame of a snapshot
// lists exactly the suite's kernels and classes, in suite order.
func checkSuiteRows(t *testing.T, img []byte) {
	t.Helper()
	specs := suite.All()
	for rest := img; len(rest) > 0; {
		var tab wire.Table
		var err error
		if tab, rest, err = wire.Decode(rest); err != nil {
			t.Fatalf("re-snapshot does not decode: %v", err)
		}
		if tab.Kind != snapSuiteKind {
			continue
		}
		names, err := column(&tab, "kernel", wire.String)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := column(&tab, "class", wire.Int64)
		if err != nil {
			t.Fatal(err)
		}
		if len(names.Strings) != len(specs) {
			t.Fatalf("re-snapshot entry has %d rows, the suite has %d kernels", len(names.Strings), len(specs))
		}
		for i := range specs {
			if names.Strings[i] != specs[i].Name || classes.Ints[i] != int64(specs[i].Class) {
				t.Fatalf("re-snapshot row %d is %q class %d, want %q class %d",
					i, names.Strings[i], classes.Ints[i], specs[i].Name, int64(specs[i].Class))
			}
		}
	}
}
