package machine

// Derivation memoization. The What-if helpers (derive.go) deep-copy
// the base, rebuild its topology maps, re-render the label and
// re-validate on every call — and campaign grids, sweeps and the
// distributed fabric's workers re-derive the same handful of variants
// over and over (a thread axis alone revisits each derived machine once
// per software configuration). The memo keys on the base machine's
// full-parameter fingerprint (the same trust the study engine's suite
// cache places in it), the operation, and the argument's bit pattern,
// and keeps a private instance: every call, hit or miss, returns a
// fresh clone of it, so the API contract is unchanged — each call
// returns a machine the caller owns outright and may mutate freely.
//
// The memo is an internal/memo Map: concurrent first derivations of a
// key share one build, and errors are not kept — they are rare, cheap
// to recompute (the argument checks run before the memo is consulted),
// and keeping them out means the memo holds only validated machines.

import "repro/internal/memo"

// deriveOp names one derivation helper in the memo key.
type deriveOp uint8

const (
	opCores deriveOp = iota
	opClock
	opVector
	opNUMA
	opSockets
	opNodes
)

type deriveKey struct {
	fp   uint64 // base machine fingerprint (full parameter set)
	op   deriveOp
	bits uint64 // argument: integer value or Float64bits
}

// maxDerived bounds the memo. Distinct keys come from distinct (base,
// axis, value) triples — a bounded working set in any real process —
// and past the bound a new derivation evicts an arbitrary old one.
const maxDerived = 4096

var deriveMemo = memo.Map[deriveKey, *Machine]{Max: maxDerived}

// derived memoizes one derivation and returns a clone of the memoized
// variant. The caller always owns the returned pointer.
func derived(m *Machine, op deriveOp, bits uint64, build func() (*Machine, error)) (*Machine, error) {
	v, _, err := deriveMemo.Get(deriveKey{fp: m.Fingerprint(), op: op, bits: bits}, build)
	if err != nil {
		return nil, err
	}
	return v.Clone(), nil
}
