package machine

import (
	"fmt"
	"strings"
	"sync"
)

// Registry is the named set of machines every label lookup resolves
// against: the seven CPUs the paper evaluates (All) plus the SG2044 and
// dual-socket SG2042x2 what-if presets, in that order. Lookups are by
// short label, case-insensitive, and every machine that comes out is a
// deep copy, so no caller can mutate a preset in place. A Registry
// never changes after it is built, so it is safe for concurrent use.
type Registry struct {
	byLabel map[string]*Machine // key: canonicalized label
	order   []*Machine
}

// DefaultRegistry returns the one shared registry of presets, built and
// validated on first use.
func DefaultRegistry() *Registry { return defaultRegistry() }

var defaultRegistry = sync.OnceValue(func() *Registry {
	r, err := newRegistry(append(All(), SG2044(), SG2042x2())...)
	if err != nil {
		panic(err) // presets are validated by tests; unreachable
	}
	return r
})

// newRegistry validates ms and indexes them by label, keeping their
// order; it takes ownership of ms. Labels are unique
// (case-insensitively): a second "SG2042" is an error, never a silent
// overwrite.
func newRegistry(ms ...*Machine) (*Registry, error) {
	r := &Registry{byLabel: make(map[string]*Machine, len(ms))}
	for _, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("machine: registering nil machine")
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		key := canonLabel(m.Label)
		if prev, ok := r.byLabel[key]; ok {
			return nil, fmt.Errorf("machine: label %q already registered (as %s)", m.Label, prev.Name)
		}
		r.byLabel[key] = m
		r.order = append(r.order, m)
	}
	return r, nil
}

func canonLabel(label string) string {
	return strings.ToLower(strings.TrimSpace(label))
}

// UnknownMachineError reports a label the registry does not hold.
// Callers distinguish it from other errors, e.g. the HTTP layer
// answers it with 404 rather than 400.
type UnknownMachineError struct {
	Label string
	// Known lists the labels the registry does hold, for the message.
	Known []string
}

func (e *UnknownMachineError) Error() string {
	return fmt.Sprintf("unknown machine %q (want one of %s)",
		e.Label, strings.Join(e.Known, ", "))
}

// Label returns the canonical spelling of label (case-insensitive), or
// an *UnknownMachineError. It copies no machine, so callers that only
// key on the label use it in place of Resolve.
func (r *Registry) Label(label string) (string, error) {
	m, ok := r.byLabel[canonLabel(label)]
	if !ok {
		return "", &UnknownMachineError{Label: label, Known: r.Labels()}
	}
	return m.Label, nil
}

// Resolve returns a deep copy of the machine with the given label
// (case-insensitive), whose Label is the canonical spelling, or an
// *UnknownMachineError.
func (r *Registry) Resolve(label string) (*Machine, error) {
	canon, err := r.Label(label)
	if err != nil {
		return nil, err
	}
	m, _ := r.Get(canon)
	return m, nil
}

// Get returns a deep copy of the machine with the given label
// (case-insensitive), or false.
func (r *Registry) Get(label string) (*Machine, bool) {
	m, ok := r.byLabel[canonLabel(label)]
	if !ok {
		return nil, false
	}
	return m.Clone(), true
}

// Labels returns the registered labels (in their original casing), in
// registration order.
func (r *Registry) Labels() []string {
	out := make([]string, len(r.order))
	for i, m := range r.order {
		out[i] = m.Label
	}
	return out
}

// Machines returns deep copies of every registered machine, in
// registration order.
func (r *Registry) Machines() []*Machine {
	out := make([]*Machine, len(r.order))
	for i, m := range r.order {
		out[i] = m.Clone()
	}
	return out
}
