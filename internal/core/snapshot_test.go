package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/prec"
	"repro/internal/suite"
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
		if _, err := st.suiteSeconds(mustMachineCfg(m, 1, prec.F64)); err != nil {
			t.Fatalf("suiteSeconds(%s): %v", label, err)
		}
	}
	// A few non-default software configs so keys vary in more than the
	// machine.
	sg := machine.SG2042()
	for _, threads := range []int{8, 64} {
		if _, err := st.suiteSeconds(mustMachineCfg(sg, threads, prec.F32)); err != nil {
			t.Fatalf("suiteSeconds(threads=%d): %v", threads, err)
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
		want, err := st.suiteSeconds(mustMachineCfg(m, 1, prec.F64))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.suiteSeconds(mustMachineCfg(m, 1, prec.F64))
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
	if _, err := st.suiteSeconds(cfg); err != nil {
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

// TestSnapshotRoundTripNegativeFields: ProblemN may be negative in a
// key and the seed is an int64, so both travel as zigzag varints and
// come back unchanged.
func TestSnapshotRoundTripNegativeFields(t *testing.T) {
	src := NewStudy()
	if _, err := src.suiteSeconds(mustMachineCfg(machine.SG2042(), 4, prec.F64)); err != nil {
		t.Fatal(err)
	}
	var want snapshotEntry
	src.cache.Range(func(k suiteKey, secs []float64) { want = snapshotEntry{k, secs} })
	st := NewStudy()
	want.key.model = st.Model
	want.key.problemN = -3
	want.key.seed = math.MinInt64 + 7
	if !st.cache.Put(want.key, want.secs) {
		t.Fatal("entry not installed")
	}
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewStudy()
	if n, err := fresh.RestoreCache(data); err != nil || n != 1 {
		t.Fatalf("RestoreCache = (%d, %v), want (1, nil)", n, err)
	}
	want.key.model = fresh.Model
	var got []snapshotEntry
	fresh.cache.Range(func(k suiteKey, secs []float64) { got = append(got, snapshotEntry{k, secs}) })
	if len(got) != 1 || got[0].key != want.key || !reflect.DeepEqual(got[0].secs, want.secs) {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
}

// TestSnapshotRefusesShortEntry: an entry that does not hold one
// seconds value per suite kernel cannot be encoded in the layout, so
// the snapshot errors instead of writing a file no restore accepts.
func TestSnapshotRefusesShortEntry(t *testing.T) {
	st := NewStudy()
	if !st.cache.Put(suiteKey{model: st.Model, machine: "SG2042", runs: 1}, []float64{1}) {
		t.Fatal("short entry not installed")
	}
	if _, err := st.SnapshotCache(); err == nil || !strings.Contains(err.Error(), "the suite has") {
		t.Fatalf("SnapshotCache = %v, want a suite-size error", err)
	}
}

// snapshotParts splits a snapshot into its encoded entries, failing
// unless its kernel list is exactly the suite's.
func snapshotParts(t *testing.T, data []byte) [][]byte {
	t.Helper()
	head := assembleSnapshot(suite.All(), nil)
	head = head[:len(head)-1] // the zero entry count
	if !bytes.HasPrefix(data, head) {
		t.Fatal("snapshot does not open with the suite's kernel list")
	}
	r := canon.NewReader(data[len(head):])
	n := r.Count(1)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	off := len(data) - r.Len()
	entries := make([][]byte, n)
	for i := range entries {
		size := entryLayoutOf(t, data[off:]).size
		entries[i] = data[off : off+size]
		off += size
	}
	if off != len(data) {
		t.Fatalf("%d trailing bytes after %d entries", len(data)-off, n)
	}
	return entries
}

// entryLayout locates the fields of one encoded entry.
type entryLayout struct {
	fp      int    // the fingerprint's 8 bytes
	varints [9]int // threads ... seed
	noise   int
	secs    int // the first seconds value
	size    int
}

// entryLayoutOf walks the entry that opens e.
func entryLayoutOf(t *testing.T, e []byte) entryLayout {
	t.Helper()
	var l entryLayout
	r := canon.NewReader(e)
	at := func() int { return len(e) - r.Len() }
	r.Str()
	l.fp = at()
	r.Uint64()
	for i := range l.varints {
		l.varints[i] = at()
		r.Varint()
	}
	l.noise = at()
	r.Float()
	l.secs = at()
	for range suite.All() {
		r.Float()
	}
	l.size = at()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return l
}

// assembleSnapshot builds a snapshot from a kernel list and encoded
// entries, which may disagree with each other and with the suite.
func assembleSnapshot(specs []kernels.Spec, entries [][]byte) []byte {
	out := binary.AppendUvarint([]byte(snapMagic), SnapshotVersion)
	out = binary.AppendUvarint(out, uint64(len(specs)))
	for _, s := range specs {
		out = canon.AppendString(out, s.Name)
		out = binary.AppendUvarint(out, uint64(s.Class))
	}
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = append(out, e...)
	}
	return out
}

// pickSeconds returns entry e with its seconds rebuilt from the given
// row indices, so rows can be dropped, duplicated or reordered.
func pickSeconds(t *testing.T, e []byte, rows []int) []byte {
	t.Helper()
	l := entryLayoutOf(t, e)
	out := append([]byte(nil), e[:l.secs]...)
	for _, row := range rows {
		out = append(out, e[l.secs+8*row:l.secs+8*row+8]...)
	}
	return out
}

// splice returns b with the n bytes at offset at replaced by with.
func splice(b []byte, at, n int, with ...byte) []byte {
	out := append([]byte(nil), b[:at]...)
	return append(append(out, with...), b[at+n:]...)
}

// TestRestoreRejectsCorruption: truncated, version-skewed, bit-flipped
// and out-of-range snapshots error cleanly and leave the cache
// untouched.
func TestRestoreRejectsCorruption(t *testing.T) {
	st := populateStudy(t)
	data, err := st.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	entries := snapshotParts(t, data)
	first := len(data) - len(bytes.Join(entries, nil))
	l := entryLayoutOf(t, entries[0])
	threads, runs := first+l.varints[0], first+l.varints[7]
	if data[threads] >= 0x80 || data[runs] >= 0x80 || data[runs] == 0 || data[first-1] != byte(len(entries)) {
		t.Fatalf("unexpected layout: threads byte %#x, runs byte %#x, count byte %#x",
			data[threads], data[runs], data[first-1])
	}
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	negative := canon.AppendFloat(nil, -1)

	cases := map[string]struct {
		data []byte
		want string // "" when any error will do
	}{
		"empty":              {nil, "magic"},
		"version skew":       {splice(data, len(snapMagic), 1, 99), "version 99"},
		"truncated":          {data[:len(data)/2], ""},
		"trailing":           {append(append([]byte(nil), data...), 0xFF), "trailing"},
		"non-minimal varint": {splice(data, threads, 1, data[threads]|0x80, 0), "non-minimal"},
		"scalar flag 2":      {splice(data, first+l.varints[5], 1, 4), "scalar flag 2"},
		"NaN noise":          {splice(data, first+l.noise, 8, nan...), "NaN noise"},
		"zero runs":          {splice(data, runs, 1, 0), "0 runs"},
		"negative seconds":   {splice(data, first+l.secs, 8, negative...), "non-positive time -1"},
		"huge entry count":   {splice(data, first-1, 1, 0xFF, 0xFF, 0x03), "exceeds"},
	}
	if len(data) > 64 {
		flipped := append([]byte(nil), data...)
		flipped[37] ^= 0xFF
		flipped[len(flipped)-5] ^= 0x55
		cases["bitflip"] = struct {
			data []byte
			want string
		}{flipped, ""}
	}
	for name, tc := range cases {
		fresh := NewStudy()
		n, err := fresh.RestoreCache(tc.data)
		if err == nil {
			// A bit flip can, in principle, land in a value byte and
			// still decode; every structural case must fail though.
			if name != "bitflip" {
				t.Errorf("%s snapshot restored without error", name)
			}
			continue
		}
		if n != 0 || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreCache = (%d, %v), want (0, an error containing %q)", name, n, err, tc.want)
		}
		if hits, misses := fresh.CacheStats(); hits != 0 || misses != 0 {
			t.Errorf("%s: failed restore touched the cache (hits=%d misses=%d)", name, hits, misses)
		}
		// The cache must still work after a failed restore.
		if _, err := fresh.suiteSeconds(mustMachineCfg(machine.SG2042(), 1, prec.F64)); err != nil {
			t.Errorf("%s: study poisoned after failed restore: %v", name, err)
		}
	}
}

// TestRestoreRejectsForeignSuiteRows: the cache reads an entry's
// seconds by suite position, so restore accepts only a snapshot whose
// kernel list is exactly the suite's kernels, in suite order, with the
// suite's classes. Anything else errors, installs nothing and leaves
// the counters and later lookups as they were.
func TestRestoreRejectsForeignSuiteRows(t *testing.T) {
	cfg := mustMachineCfg(machine.SG2042(), 4, prec.F64)
	src := NewStudy()
	want, err := src.suiteSeconds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := src.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	entries := snapshotParts(t, data)
	specs := suite.All()
	n := len(specs)
	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	swapped := append([]int(nil), inOrder...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	// pick lists the kernels at rows and rebuilds every entry's seconds
	// from the same rows, so list and entries agree with each other
	// but not with the suite.
	pick := func(rows []int) []byte {
		ks := make([]kernels.Spec, len(rows))
		es := make([][]byte, len(entries))
		for i, row := range rows {
			ks[i] = specs[row]
		}
		for i, e := range entries {
			es[i] = pickSeconds(t, e, rows)
		}
		return assembleSnapshot(ks, es)
	}
	foreign := append([]kernels.Spec(nil), specs...)
	foreign[0].Class++
	cases := map[string][]byte{
		"one row":       pick([]int{0}),
		"swapped rows":  pick(swapped),
		"foreign class": assembleSnapshot(foreign, entries),
		"extra row":     pick(append(inOrder, n-1)),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			st := NewStudy()
			if _, err := st.suiteSeconds(mustMachineCfg(machine.SG2042(), 1, prec.F64)); err != nil {
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
			ms, err := st.suiteSeconds(cfg)
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
