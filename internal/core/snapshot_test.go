package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/prec"
	"repro/internal/suite"
	"repro/internal/wire"
)

// populate evaluates one suite per registry preset plus a couple of
// software-config variants, returning the study.
func populateStudy(t *testing.T) *Study {
	t.Helper()
	st := NewStudy()
	for _, label := range machine.DefaultRegistry().Labels() {
		m, ok := machine.DefaultRegistry().Get(label)
		if !ok {
			t.Fatalf("registry lost %q", label)
		}
		if _, err := st.RunSuite(mustMachineCfg(m, 1, prec.F64)); err != nil {
			t.Fatalf("RunSuite(%s): %v", label, err)
		}
	}
	// A few non-default software configs so keys vary in more than the
	// machine.
	sg := machine.SG2042()
	for _, threads := range []int{8, 64} {
		if _, err := st.RunSuite(mustMachineCfg(sg, threads, prec.F32)); err != nil {
			t.Fatalf("RunSuite(threads=%d): %v", threads, err)
		}
	}
	return st
}

// TestSnapshotRoundTripAllPresets snapshots a cache populated from
// every registry preset and restores it into a fresh study: every
// entry must come back, bit-identical, and be served as a cache hit.
func TestSnapshotRoundTripAllPresets(t *testing.T) {
	st := populateStudy(t)
	_, misses := st.CacheStats()
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatalf("SnapshotCache: %v", err)
	}

	fresh := NewStudy()
	n, err := fresh.RestoreCache(data)
	if err != nil {
		t.Fatalf("RestoreCache: %v", err)
	}
	if uint64(n) != misses {
		t.Fatalf("restored %d entries, want %d (the evaluated configurations)", n, misses)
	}

	// Every configuration the original study evaluated must now be a
	// hit with bit-identical measurements.
	hits0, misses0 := fresh.CacheStats()
	for _, label := range machine.DefaultRegistry().Labels() {
		m, _ := machine.DefaultRegistry().Get(label)
		want, err := st.RunSuite(mustMachineCfg(m, 1, prec.F64))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.RunSuite(mustMachineCfg(m, 1, prec.F64))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: restored measurements differ from evaluated", label)
		}
	}
	hits1, misses1 := fresh.CacheStats()
	if misses1 != misses0 {
		t.Fatalf("restored study evaluated %d suites, want 0", misses1-misses0)
	}
	if wantHits := uint64(len(machine.DefaultRegistry().Labels())); hits1-hits0 != wantHits {
		t.Fatalf("restored study served %d hits, want %d", hits1-hits0, wantHits)
	}
}

// TestSnapshotDeterministic: same cache state, same bytes.
func TestSnapshotDeterministic(t *testing.T) {
	st := populateStudy(t)
	a, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same cache differ")
	}
}

// TestRestoreDoesNotOverwrite: restoring over an already-warm key
// keeps the existing entry and reports it skipped.
func TestRestoreDoesNotOverwrite(t *testing.T) {
	st := NewStudy()
	cfg := mustMachineCfg(machine.SG2042(), 1, prec.F64)
	if _, err := st.RunSuite(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.RestoreCache(data); err != nil || n != 0 {
		t.Fatalf("RestoreCache over warm cache = (%d, %v), want (0, nil)", n, err)
	}
}

// TestRestoreRejectsCorruption: truncated, version-skewed and
// bit-flipped snapshots error cleanly and leave the cache untouched.
func TestRestoreRejectsCorruption(t *testing.T) {
	st := populateStudy(t)
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}

	// Version skew: a header declaring an unknown snapshot version must
	// be rejected even though the wire framing itself is valid.
	badHeader := mustSnapshotHeader(t, 99, 0)
	if _, err := NewStudy().RestoreCache(badHeader); err == nil {
		t.Fatal("version-skewed snapshot restored without error")
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)/2],
		"trailing":  append(append([]byte(nil), data...), 0xFF),
	}
	if len(data) > 64 {
		flipped := append([]byte(nil), data...)
		flipped[37] ^= 0xFF
		flipped[len(flipped)-5] ^= 0x55
		cases["bitflip"] = flipped
	}
	for name, bad := range cases {
		fresh := NewStudy()
		if _, err := fresh.RestoreCache(bad); err == nil {
			// A bit flip can, in principle, land in a value byte and
			// still decode; every structural case must fail though.
			if name != "bitflip" {
				t.Errorf("%s snapshot restored without error", name)
			}
			continue
		}
		if hits, misses := fresh.CacheStats(); hits != 0 || misses != 0 {
			t.Errorf("%s: failed restore touched the cache (hits=%d misses=%d)", name, hits, misses)
		}
		// The cache must still work after a failed restore.
		if _, err := fresh.RunSuite(mustMachineCfg(machine.SG2042(), 1, prec.F64)); err != nil {
			t.Errorf("%s: study poisoned after failed restore: %v", name, err)
		}
	}
}

// mustSnapshotHeader builds a snapshot whose header declares the given
// version and entry count, with no entry frames.
func mustSnapshotHeader(t *testing.T, version, entries int64) []byte {
	t.Helper()
	out, err := wire.Encode(wire.Table{
		Kind:  snapHeaderKind,
		Title: "sg2042 suite cache",
		Columns: []wire.Column{
			{Name: "version", Type: wire.Int64, Ints: []int64{version}},
			{Name: "entries", Type: wire.Int64, Ints: []int64{entries}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rewriteSnapshot re-encodes a snapshot after mutate has edited each
// entry's key and measurement frames in place.
func rewriteSnapshot(t *testing.T, data []byte, mutate func(key, suite *wire.Table)) []byte {
	t.Helper()
	var tables []wire.Table
	for rest := data; len(rest) > 0; {
		var tab wire.Table
		var err error
		if tab, rest, err = wire.Decode(rest); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	for i := 1; i+1 < len(tables); i += 2 {
		mutate(&tables[i], &tables[i+1])
	}
	out, err := wire.Encode(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pickRows rebuilds every column of a measurement frame from the given
// row indices, so rows can be dropped, duplicated or reordered.
func pickRows(suiteT *wire.Table, rows []int) {
	for i := range suiteT.Columns {
		c := &suiteT.Columns[i]
		switch c.Type {
		case wire.String:
			s := make([]string, len(rows))
			for j, r := range rows {
				s[j] = c.Strings[r]
			}
			c.Strings = s
		case wire.Int64:
			s := make([]int64, len(rows))
			for j, r := range rows {
				s[j] = c.Ints[r]
			}
			c.Ints = s
		case wire.Float64:
			s := make([]float64, len(rows))
			for j, r := range rows {
				s[j] = c.Floats[r]
			}
			c.Floats = s
		}
	}
}

// TestRestoreRejectsForeignSuiteRows: the cache reads an entry's
// seconds by suite position, so restore accepts only entries whose
// rows are exactly the suite's kernels, in suite order, with the
// suite's classes. Anything else errors, installs nothing and leaves
// the counters and later lookups as they were.
func TestRestoreRejectsForeignSuiteRows(t *testing.T) {
	cfg := mustMachineCfg(machine.SG2042(), 4, prec.F64)
	src := NewStudy()
	want, err := src.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := src.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	n := len(suite.All())
	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	swapped := append([]int(nil), inOrder...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	cases := map[string][]byte{
		"one row": rewriteSnapshot(t, data, func(_, s *wire.Table) {
			pickRows(s, []int{0})
		}),
		"swapped rows": rewriteSnapshot(t, data, func(_, s *wire.Table) {
			pickRows(s, swapped)
		}),
		"foreign class": rewriteSnapshot(t, data, func(_, s *wire.Table) {
			for i := range s.Columns {
				if s.Columns[i].Name == "class" {
					s.Columns[i].Ints[0]++
				}
			}
		}),
		"extra row": rewriteSnapshot(t, data, func(_, s *wire.Table) {
			pickRows(s, append(inOrder, n-1))
		}),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			st := NewStudy()
			if _, err := st.RunSuite(mustMachineCfg(machine.SG2042(), 1, prec.F64)); err != nil {
				t.Fatal(err)
			}
			hits, misses := st.CacheStats()
			got, err := st.RestoreCache(bad)
			if err == nil || got != 0 || !strings.Contains(err.Error(), "the suite has") {
				t.Fatalf("RestoreCache = (%d, %v), want (0, a suite-rows error)", got, err)
			}
			if h, m := st.CacheStats(); h != hits || m != misses {
				t.Fatalf("failed restore moved the counters: hits %d->%d misses %d->%d", hits, h, misses, m)
			}
			ms, err := st.RunSuite(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, want) {
				t.Fatal("lookup after a failed restore differs from a fresh evaluation")
			}
			if _, m := st.CacheStats(); m != misses+1 {
				t.Fatalf("lookup after a failed restore was served from the cache (misses %d->%d)", misses, m)
			}
		})
	}
}
