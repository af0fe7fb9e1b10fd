package core

// Warm-cache snapshot/restore. A long-lived study engine is only fast
// once its config-keyed suite cache is populated; a restarted shard of
// the distributed fabric (internal/fabric) would otherwise boot cold
// and re-evaluate its whole slice of the grid. SnapshotCache serializes
// every completed cache entry — the canonical suite key plus the
// memoized per-kernel seconds — in one fixed layout, and RestoreCache
// installs a snapshot into a fresh study so its first shard-owned
// request is already a cache hit.
//
// Format (SnapshotVersion 2), in internal/canon's primitives:
//
//	"SGSC", then the version as a uvarint
//	kernel count, then per suite kernel in suite order: name, class
//	entry count, then per entry:
//	    machine label
//	    machine fingerprint, 8 bytes
//	    threads, placement, prec, compiler, mode, scalar (0 or 1),
//	    problemN, runs, seed: zigzag varints
//	    noise, then one seconds value per suite kernel: floats
//
// The suite's kernels are listed once; the cache reads an entry's
// seconds by suite position, so a decoder rejects a snapshot whose list
// is not exactly suite.All() in order. Entries are ordered by their
// encoded bytes, so snapshot bytes are a pure function of cache
// content. Floats travel as IEEE-754 bit patterns, so a restored entry
// is bit-identical to the evaluated one — the determinism contract
// survives a restart.
//
// Restore is all-or-nothing: the entire snapshot is decoded and
// validated into a staging slice before anything touches the cache, so
// a corrupt, truncated or version-skewed file errors cleanly and never
// poisons (or partially populates) a live cache. The one key field that
// cannot travel is the *perfmodel.Model pointer; restored entries are
// keyed to the restoring study's Model, which is correct exactly when
// the study runs the same model configuration that produced the
// snapshot — the deployment contract for warm restarts
// (docs/PERFORMANCE.md).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/autovec"
	"repro/internal/canon"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// SnapshotVersion is the current snapshot layout version. It bumps on
// any change to the layout above; a decoder rejects versions it does
// not know.
const SnapshotVersion = 2

// snapMagic opens every snapshot, ahead of the version.
const snapMagic = "SGSC"

// snapshotEntry is one completed suite-cache entry — the unit a
// snapshot serializes. The cache takes ownership of a restored secs.
type snapshotEntry struct {
	key  suiteKey
	secs []float64
}

// SnapshotCache serializes every completed suite-cache entry. The
// output is deterministic: entries are sorted by their encoded bytes,
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
		// Range skips entries still in flight instead of waiting on
		// them, so a snapshot during live traffic never blocks
		// evaluation.
		st.cache.Range(func(k suiteKey, secs []float64) {
			entries = append(entries, snapshotEntry{key: k, secs: secs})
		})
	}
	specs := suite.All()
	// An entry takes 8 bytes per float plus its label and varints. A
	// slice of body stays valid if body grows: bytes once appended are
	// never rewritten.
	body := make([]byte, 0, len(entries)*(64+8*(1+len(specs))))
	encoded := make([][]byte, 0, len(entries))
	for _, e := range entries {
		if keep != nil && !keep(e.key.machineFP) {
			continue
		}
		if len(e.secs) != len(specs) {
			return nil, fmt.Errorf("core: cache entry for %s holds %d seconds, the suite has %d kernels",
				e.key.machine, len(e.secs), len(specs))
		}
		start := len(body)
		body = appendEntry(body, e)
		encoded = append(encoded, body[start:])
	}
	slices.SortFunc(encoded, bytes.Compare)

	out := make([]byte, 0, 1024+len(body))
	out = append(out, snapMagic...)
	out = binary.AppendUvarint(out, SnapshotVersion)
	out = binary.AppendUvarint(out, uint64(len(specs)))
	for _, s := range specs {
		out = canon.AppendString(out, s.Name)
		out = binary.AppendUvarint(out, uint64(s.Class))
	}
	out = binary.AppendUvarint(out, uint64(len(encoded)))
	for _, e := range encoded {
		out = append(out, e...)
	}
	return out, nil
}

// appendEntry appends one entry in the layout's field order.
func appendEntry(dst []byte, e snapshotEntry) []byte {
	k := e.key
	scalar := 0
	if k.scalarOnly {
		scalar = 1
	}
	dst = canon.AppendString(dst, k.machine)
	dst = binary.LittleEndian.AppendUint64(dst, k.machineFP)
	for _, v := range [...]int64{
		int64(k.threads), int64(k.placement), int64(k.prec), int64(k.compiler), int64(k.mode),
		int64(scalar), int64(k.problemN), int64(k.runs), k.seed,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = canon.AppendFloat(dst, k.noise)
	for _, s := range e.secs {
		dst = canon.AppendFloat(dst, s)
	}
	return dst
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
		if st.cache.Put(e.key, e.secs) {
			installed++
		}
	}
	return installed, nil
}

// decodeSnapshot decodes and fully validates a snapshot into staged
// entries. It is total over arbitrary input: corrupt bytes yield an
// error, never a panic (the reader bounds-checks every length) and
// never a partially-usable result.
func decodeSnapshot(data []byte) ([]snapshotEntry, error) {
	r := canon.NewReader(data)
	r.Magic(snapMagic)
	if v := r.Uvarint(); r.Err() == nil && v != SnapshotVersion {
		r.Fail("version %d (decoder speaks %d)", v, SnapshotVersion)
	}
	specs := suite.All()
	if n := r.Count(2); r.Err() == nil && n != len(specs) {
		r.Fail("lists %d kernels, the suite has %d", n, len(specs))
	}
	for i := 0; i < len(specs) && r.Err() == nil; i++ {
		name, class := r.Str(), r.Uvarint()
		if r.Err() == nil && (name != specs[i].Name || class != uint64(specs[i].Class)) {
			r.Fail("row %d is kernel %q class %d, the suite has %q class %d there",
				i, name, class, specs[i].Name, int64(specs[i].Class))
		}
	}
	// The smallest entry: a one-byte label, the fingerprint, nine
	// one-byte varints, noise and the seconds.
	n := r.Count(1 + 8 + 9 + 8*(1+len(specs)))
	entries := make([]snapshotEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		// Operands evaluate left to right: the fields in layout order.
		k := suiteKey{
			machine:   r.Str(),
			machineFP: r.Uint64(),
			threads:   int(r.Varint()),
			placement: placement.Policy(r.Varint()),
			prec:      prec.Precision(r.Varint()),
			compiler:  autovec.Compiler(r.Varint()),
			mode:      autovec.Mode(r.Varint()),
		}
		scalar := r.Varint()
		k.scalarOnly = scalar == 1
		k.problemN = int(r.Varint())
		k.runs = int(r.Varint())
		k.seed = r.Varint()
		k.noise = r.Float()
		switch {
		case scalar != 0 && scalar != 1:
			r.Fail("entry %d: scalar flag %d, want 0 or 1", i, scalar)
		case math.IsNaN(k.noise):
			// A NaN map key can be inserted but never looked up again;
			// a snapshot carrying one is corrupt, not merely useless.
			r.Fail("entry %d has NaN noise", i)
		case k.runs < 1:
			r.Fail("entry %d has %d runs, want >= 1", i, k.runs)
		}
		secs := make([]float64, len(specs))
		for j := range secs {
			secs[j] = r.Float()
			if s := secs[j]; r.Err() == nil && (math.IsNaN(s) || math.IsInf(s, 0) || s <= 0) {
				r.Fail("entry %d: kernel %q has non-positive time %v", i, specs[j].Name, s)
			}
		}
		entries = append(entries, snapshotEntry{key: k, secs: secs})
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return entries, nil
}
