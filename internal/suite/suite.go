// Package suite aggregates the 64 RAJAPerf kernels from the six class
// packages into one registry, in the paper's class order, and provides
// lookup helpers the harness, compiler model and performance model use.
//
// The registry is assembled, and every spec validated, once at package
// init, and it is immutable from then on: All, ByClass and Names return
// shared slices by reference — a suite evaluation on the serving hot
// path costs zero registry allocations — so callers must treat the
// results as read-only and copy before mutating (the public repro API
// does exactly that at its boundary).
package suite

import (
	"fmt"
	"sort"

	"repro/internal/kernels"
	"repro/internal/kernels/algorithm"
	"repro/internal/kernels/apps"
	"repro/internal/kernels/basic"
	"repro/internal/kernels/lcals"
	"repro/internal/kernels/polybench"
	"repro/internal/kernels/stream"
)

var (
	// all is the full registry, grouped by class in the paper's order
	// and alphabetical within a class. Built once; never mutated.
	all []kernels.Spec
	// indexByName maps a kernel name to its position in all.
	indexByName map[string]int
	// names lists all kernel names in registry order.
	names []string
	// classBounds[c] is the [lo, hi) range of class c within all —
	// classes are contiguous because all is sorted by class first.
	classBounds map[kernels.Class][2]int
)

func init() {
	all = append(all, algorithm.Specs()...)
	all = append(all, apps.Specs()...)
	all = append(all, basic.Specs()...)
	all = append(all, lcals.Specs()...)
	all = append(all, polybench.Specs()...)
	all = append(all, stream.Specs()...)
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Class != all[j].Class {
			return all[i].Class < all[j].Class
		}
		return all[i].Name < all[j].Name
	})
	// Trim the spare append capacity: a caller doing
	// append(suite.All(), x) must get a fresh array, never write into
	// the shared backing store.
	all = all[:len(all):len(all)]
	indexByName = make(map[string]int, len(all))
	names = make([]string, len(all))
	classBounds = make(map[kernels.Class][2]int)
	for i := range all {
		// A malformed spec is a bug in its class package: fail at start
		// rather than model it.
		if err := all[i].Validate(); err != nil {
			panic(err)
		}
		indexByName[all[i].Name] = i
		names[i] = all[i].Name
		b, ok := classBounds[all[i].Class]
		if !ok {
			b = [2]int{i, i}
		}
		b[1] = i + 1
		classBounds[all[i].Class] = b
	}
}

// All returns all 64 kernels, grouped by class in the paper's order
// (Algorithm, Apps, Basic, Lcals, Polybench, Stream) and alphabetical
// within a class. The returned slice is shared: treat it as read-only.
func All() []kernels.Spec {
	return all
}

// ByClass returns the kernels of one class — a shared subslice of the
// registry: treat it as read-only.
func ByClass(c kernels.Class) []kernels.Spec {
	b, ok := classBounds[c]
	if !ok {
		return nil
	}
	return all[b[0]:b[1]:b[1]]
}

// ByName returns the kernel with the given name (O(1) via the
// package-level index).
func ByName(name string) (kernels.Spec, error) {
	if i, ok := indexByName[name]; ok {
		return all[i], nil
	}
	return kernels.Spec{}, fmt.Errorf("suite: unknown kernel %q", name)
}

// Names returns all kernel names in registry order. The returned slice
// is shared: treat it as read-only.
func Names() []string {
	return names
}
