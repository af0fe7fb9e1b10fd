package core

// Warm-cache snapshot/restore. A long-lived study engine is only fast
// once its config-keyed suite cache is populated; a restarted shard of
// the distributed fabric (internal/fabric) would otherwise boot cold
// and re-evaluate its whole slice of the grid. SnapshotCache serializes
// every completed cache entry — the canonical suite key plus the
// memoized per-kernel seconds, joined with the suite's kernel names and
// classes — through the internal/wire canonical encoding,
// and RestoreCache installs a snapshot into a fresh study so its first
// shard-owned request is already a cache hit.
//
// Format: a concatenation of wire frames (the same versioned,
// length-prefixed, self-describing column tables every binary HTTP
// response uses), opened by a header frame carrying the snapshot's own
// format version and entry count, then two frames per entry:
//
//	frame 0           kind "snapshot"       1 row: version, entries
//	frame 2k+1        kind "snapshot-key"   1 row: the suite key fields
//	                                        (fingerprint-keyed: the
//	                                        machine's full Fingerprint()
//	                                        plus every other key field)
//	frame 2k+2        kind "snapshot-suite" one row per suite kernel,
//	                                        in suite order: kernel,
//	                                        class, seconds
//
// Float64 fields travel as IEEE-754 bit patterns, so a restored entry
// is bit-identical to the evaluated one — the determinism contract
// survives a restart. Versioning is two-layered: the wire format's own
// version byte guards the frame layout, and the header's version column
// guards the snapshot schema; a decoder rejects either mismatch.
//
// Restore is all-or-nothing: the entire snapshot is decoded and
// validated into a staging slice before anything touches the cache, so
// a corrupt, truncated or version-skewed file — or one whose entries
// are not the suite's kernels in suite order — errors cleanly and never
// poisons (or partially populates) a live cache. The one key field that
// cannot travel is the *perfmodel.Model pointer; restored entries are
// keyed to the restoring study's Model, which is correct exactly when
// the study runs the same model configuration that produced the
// snapshot — the deployment contract for warm restarts
// (docs/PERFORMANCE.md).

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/autovec"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
	"repro/internal/wire"
)

// SnapshotVersion is the current snapshot schema version. It bumps on
// any change to the frame sequence or column sets below; a decoder
// rejects versions it does not know.
const SnapshotVersion = 1

// Snapshot frame kinds.
const (
	snapHeaderKind = "snapshot"
	snapKeyKind    = "snapshot-key"
	snapSuiteKind  = "snapshot-suite"
)

// SnapshotCache serializes every completed suite-cache entry. The
// output is deterministic: entries are sorted by their canonical key,
// so two snapshots of the same cache state are byte-identical.
func (st *Study) SnapshotCache() ([]byte, error) {
	return st.SnapshotCacheIf(nil)
}

// SnapshotCacheIf is SnapshotCache restricted to entries whose machine
// fingerprint keep accepts (nil keeps everything). The distributed
// fabric's snapshot shipping uses it to carve a worker's cache down to
// one owner's keys: a peer answers GET /v1/fabric/snapshot?owner=...
// with exactly the entries whose fingerprints that worker owns, so a
// rejoining worker pulls its slice of the key space and nothing else.
func (st *Study) SnapshotCacheIf(keep func(machineFP uint64) bool) ([]byte, error) {
	var entries []snapshotEntry
	if st.cache != nil {
		entries = st.cache.snapshotEntries()
	}
	if keep != nil {
		kept := entries[:0]
		for _, e := range entries {
			if keep(e.key.machineFP) {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	sortSnapshotEntries(entries)
	tables := make([]wire.Table, 0, 1+2*len(entries))
	header := wire.Table{
		Kind:  snapHeaderKind,
		Title: "sg2042 suite cache",
		Columns: []wire.Column{
			{Name: "version", Type: wire.Int64, Ints: []int64{SnapshotVersion}},
			{Name: "entries", Type: wire.Int64, Ints: []int64{int64(len(entries))}},
		},
	}
	tables = append(tables, header)
	for _, e := range entries {
		tables = append(tables, keyTable(e.key), suiteTable(e.key, e.secs))
	}
	return wire.Encode(tables...)
}

// RestoreCache decodes a snapshot and installs its entries into the
// study's cache, returning how many entries were installed (entries
// whose key is already cached are skipped, not overwritten). Any
// decode or validation error leaves the cache untouched.
func (st *Study) RestoreCache(data []byte) (int, error) {
	if st.cache == nil {
		return 0, fmt.Errorf("core: restoring into a study without a cache (use NewStudy)")
	}
	entries, err := decodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	installed := 0
	for _, e := range entries {
		e.key.model = st.Model
		if st.cache.install(e.key, e.secs) {
			installed++
		}
	}
	return installed, nil
}

// sortSnapshotEntries orders entries by every key field, so snapshot
// bytes are a pure function of cache content.
func sortSnapshotEntries(entries []snapshotEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].key, entries[j].key
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		if a.machineFP != b.machineFP {
			return a.machineFP < b.machineFP
		}
		if a.threads != b.threads {
			return a.threads < b.threads
		}
		if a.placement != b.placement {
			return a.placement < b.placement
		}
		if a.prec != b.prec {
			return a.prec < b.prec
		}
		if a.compiler != b.compiler {
			return a.compiler < b.compiler
		}
		if a.mode != b.mode {
			return a.mode < b.mode
		}
		if a.scalarOnly != b.scalarOnly {
			return b.scalarOnly
		}
		if a.problemN != b.problemN {
			return a.problemN < b.problemN
		}
		if a.runs != b.runs {
			return a.runs < b.runs
		}
		if a.noise != b.noise {
			return a.noise < b.noise
		}
		return a.seed < b.seed
	})
}

// keyTable encodes one suite key as a one-row frame.
func keyTable(k suiteKey) wire.Table {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	return wire.Table{
		Kind:  snapKeyKind,
		Title: k.machine,
		Columns: []wire.Column{
			{Name: "fingerprint", Type: wire.Int64, Ints: []int64{int64(k.machineFP)}},
			{Name: "threads", Type: wire.Int64, Ints: []int64{int64(k.threads)}},
			{Name: "placement", Type: wire.Int64, Ints: []int64{int64(k.placement)}},
			{Name: "prec", Type: wire.Int64, Ints: []int64{int64(k.prec)}},
			{Name: "compiler", Type: wire.Int64, Ints: []int64{int64(k.compiler)}},
			{Name: "mode", Type: wire.Int64, Ints: []int64{int64(k.mode)}},
			{Name: "scalar", Type: wire.Int64, Ints: []int64{b2i(k.scalarOnly)}},
			{Name: "problemn", Type: wire.Int64, Ints: []int64{int64(k.problemN)}},
			{Name: "runs", Type: wire.Int64, Ints: []int64{int64(k.runs)}},
			{Name: "noise", Type: wire.Float64, Floats: []float64{k.noise}},
			{Name: "seed", Type: wire.Int64, Ints: []int64{k.seed}},
		},
	}
}

// suiteTable encodes one entry's measurements: the cached seconds
// joined with the suite's kernel names and classes, row i being
// suite.All()[i].
func suiteTable(k suiteKey, secs []float64) wire.Table {
	specs := suite.All()
	classCol := make([]int64, len(specs))
	for i := range specs {
		classCol[i] = int64(specs[i].Class)
	}
	return wire.Table{
		Kind:  snapSuiteKind,
		Title: k.machine,
		Columns: []wire.Column{
			{Name: "kernel", Type: wire.String, Strings: suite.Names()},
			{Name: "class", Type: wire.Int64, Ints: classCol},
			{Name: "seconds", Type: wire.Float64, Floats: secs},
		},
	}
}

// decodeSnapshot decodes and fully validates a snapshot into staged
// entries. It is total over arbitrary input: corrupt bytes yield an
// error, never a panic (the wire reader bounds-checks every length) and
// never a partially-usable result.
func decodeSnapshot(data []byte) ([]snapshotEntry, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty snapshot")
	}
	header, rest, err := wire.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if header.Kind != snapHeaderKind {
		return nil, fmt.Errorf("core: snapshot opens with %q frame, want %q", header.Kind, snapHeaderKind)
	}
	version, err := headerInt(&header, "version")
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d (decoder speaks %d)", version, SnapshotVersion)
	}
	n, err := headerInt(&header, "entries")
	if err != nil {
		return nil, err
	}
	if n < 0 || n > int64(len(data)) {
		// Each entry costs many bytes; an entry count past the input
		// length cannot be honest. This bounds the staging allocation.
		return nil, fmt.Errorf("core: snapshot declares %d entries in %d bytes", n, len(data))
	}
	entries := make([]snapshotEntry, 0, n)
	for i := int64(0); i < n; i++ {
		var keyT, suiteT wire.Table
		if keyT, rest, err = wire.Decode(rest); err != nil {
			return nil, fmt.Errorf("core: snapshot entry %d key: %w", i, err)
		}
		if suiteT, rest, err = wire.Decode(rest); err != nil {
			return nil, fmt.Errorf("core: snapshot entry %d measurements: %w", i, err)
		}
		e, err := decodeEntry(&keyT, &suiteT)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot entry %d: %w", i, err)
		}
		entries = append(entries, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after %d snapshot entries", len(rest), n)
	}
	return entries, nil
}

// headerInt reads a named one-row Int64 column.
func headerInt(t *wire.Table, name string) (int64, error) {
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name != name {
			continue
		}
		if c.Type != wire.Int64 || len(c.Ints) != 1 {
			return 0, fmt.Errorf("core: snapshot column %q is not a single int64", name)
		}
		return c.Ints[0], nil
	}
	return 0, fmt.Errorf("core: snapshot frame %q lacks column %q", t.Kind, name)
}

// decodeEntry validates one key+measurements frame pair.
func decodeEntry(keyT, suiteT *wire.Table) (snapshotEntry, error) {
	var e snapshotEntry
	if keyT.Kind != snapKeyKind {
		return e, fmt.Errorf("key frame has kind %q, want %q", keyT.Kind, snapKeyKind)
	}
	if suiteT.Kind != snapSuiteKind {
		return e, fmt.Errorf("measurement frame has kind %q, want %q", suiteT.Kind, snapSuiteKind)
	}
	ints := func(name string) (int64, error) { return headerInt(keyT, name) }
	fp, err := ints("fingerprint")
	if err != nil {
		return e, err
	}
	threads, err := ints("threads")
	if err != nil {
		return e, err
	}
	pol, err := ints("placement")
	if err != nil {
		return e, err
	}
	pr, err := ints("prec")
	if err != nil {
		return e, err
	}
	comp, err := ints("compiler")
	if err != nil {
		return e, err
	}
	mode, err := ints("mode")
	if err != nil {
		return e, err
	}
	scalar, err := ints("scalar")
	if err != nil {
		return e, err
	}
	problemN, err := ints("problemn")
	if err != nil {
		return e, err
	}
	runs, err := ints("runs")
	if err != nil {
		return e, err
	}
	seed, err := ints("seed")
	if err != nil {
		return e, err
	}
	noise, err := headerFloat(keyT, "noise")
	if err != nil {
		return e, err
	}
	if scalar != 0 && scalar != 1 {
		return e, fmt.Errorf("scalar flag %d, want 0 or 1", scalar)
	}
	if math.IsNaN(noise) {
		// A NaN map key can be inserted but never looked up again; a
		// snapshot carrying one is corrupt, not merely useless.
		return e, fmt.Errorf("entry has NaN noise")
	}
	if runs < 1 {
		return e, fmt.Errorf("entry has %d runs, want >= 1", runs)
	}
	e.key = suiteKey{
		machine:    keyT.Title,
		machineFP:  uint64(fp),
		threads:    int(threads),
		placement:  placement.Policy(pol),
		prec:       prec.Precision(pr),
		compiler:   autovec.Compiler(comp),
		mode:       autovec.Mode(mode),
		scalarOnly: scalar == 1,
		problemN:   int(problemN),
		runs:       int(runs),
		noise:      noise,
		seed:       seed,
	}
	kernelCol, err := column(suiteT, "kernel", wire.String)
	if err != nil {
		return e, err
	}
	classCol, err := column(suiteT, "class", wire.Int64)
	if err != nil {
		return e, err
	}
	secondsCol, err := column(suiteT, "seconds", wire.Float64)
	if err != nil {
		return e, err
	}
	// The cache stores seconds by suite position alone, so the rows
	// must be exactly the suite's kernels, in suite order, with the
	// suite's classes: a short or reordered entry would be read against
	// the wrong kernels (or past its end) by every campaign using it.
	specs := suite.All()
	if rows := suiteT.NumRows(); rows != len(specs) {
		return e, fmt.Errorf("entry has %d measurements, the suite has %d kernels", rows, len(specs))
	}
	e.secs = make([]float64, len(specs))
	for i := range specs {
		name, class := kernelCol.Strings[i], classCol.Ints[i]
		if name != specs[i].Name || class != int64(specs[i].Class) {
			return e, fmt.Errorf("row %d is kernel %q class %d, the suite has %q class %d there",
				i, name, class, specs[i].Name, int64(specs[i].Class))
		}
		sec := secondsCol.Floats[i]
		if math.IsNaN(sec) || math.IsInf(sec, 0) || sec <= 0 {
			return e, fmt.Errorf("kernel %q has non-positive time %v", name, sec)
		}
		e.secs[i] = sec
	}
	return e, nil
}

// headerFloat reads a named one-row Float64 column.
func headerFloat(t *wire.Table, name string) (float64, error) {
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name != name {
			continue
		}
		if c.Type != wire.Float64 || len(c.Floats) != 1 {
			return 0, fmt.Errorf("core: snapshot column %q is not a single float64", name)
		}
		return c.Floats[0], nil
	}
	return 0, fmt.Errorf("core: snapshot frame %q lacks column %q", t.Kind, name)
}

// column finds a named column of the expected type.
func column(t *wire.Table, name string, typ wire.ColType) (*wire.Column, error) {
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name == name {
			if c.Type != typ {
				return nil, fmt.Errorf("column %q has type %v, want %v", name, c.Type, typ)
			}
			return c, nil
		}
	}
	return nil, fmt.Errorf("frame %q lacks column %q", t.Kind, name)
}
