package fabric

import (
	"sort"
	"sync"
)

// Membership is the fleet's dynamic view: which workers exist (the
// ring, fixed when the Membership is built) and which of them are
// currently believed live. Death and recovery are exclusion-set
// transitions, so a bounced worker takes back exactly the keys it lost
// (its peers keep theirs, and their warm caches with them). One
// Membership is shared by every campaign a coordinator runs and by its
// health prober; all methods are safe for concurrent use.
type Membership struct {
	ring  *Ring // its targets are the members, in listed order
	mu    sync.Mutex
	state map[string]*memberState
}

type memberState struct {
	live        bool
	quarantined bool   // divergent under replica cross-check; sticky
	epoch       int    // bumped on every revival (see Epoch)
	reason      string // why the worker is dead; cleared on recovery
}

// MemberStatus is one worker's membership state, for status surfaces
// (/metrics, logs).
type MemberStatus struct {
	Target      string
	Live        bool
	Quarantined bool
	Reason      string
}

// NewMembership builds a membership over the initial fleet, everyone
// optimistically live (a worker that is in fact down fails its first
// dispatch or probe and transitions then).
func NewMembership(targets []string) (*Membership, error) {
	ring, err := NewRing(targets)
	if err != nil {
		return nil, err
	}
	m := &Membership{
		ring:  ring,
		state: make(map[string]*memberState, len(targets)),
	}
	for _, t := range targets {
		m.state[t] = &memberState{live: true}
	}
	return m, nil
}

// Ring returns the fleet's ring, which never changes.
func (m *Membership) Ring() *Ring { return m.ring }

// Targets returns every member, live or dead, in listed order.
func (m *Membership) Targets() []string {
	return append([]string(nil), m.ring.targets...)
}

// DeadSet returns the current exclusion set: dead targets mapped to
// true — the shape Ring.Owner consumes.
func (m *Membership) DeadSet() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	dead := make(map[string]bool)
	for t, st := range m.state {
		if !st.live {
			dead[t] = true
		}
	}
	return dead
}

// Live returns the live targets in listed order.
func (m *Membership) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var live []string
	for _, t := range m.ring.targets {
		if m.state[t].live {
			live = append(live, t)
		}
	}
	return live
}

// MarkDead records a worker as dead with the given reason, returning
// true exactly on a live→dead transition. Unknown targets are ignored.
func (m *Membership) MarkDead(target, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[target]
	if !ok || !st.live {
		return false
	}
	st.live = false
	st.reason = reason
	return true
}

// MarkLive records a worker as live, returning true exactly on a
// dead→live transition — the rejoin edge snapshot shipping hangs off.
// Quarantined workers stay dead until the coordinator restarts: a
// worker that serves wrong bytes passes health probes, so revival from
// quarantine is never automatic.
func (m *Membership) MarkLive(target string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[target]
	if !ok || st.live || st.quarantined {
		return false
	}
	st.live = true
	st.epoch++
	st.reason = ""
	return true
}

// Epoch returns how many times the target has been revived. A campaign
// that excluded a worker run-locally compares epochs at re-dispatch
// time: a bumped epoch means the prober has since verified the worker
// healthy, so the run-local grudge is dropped and the revived worker
// takes its keys back mid-campaign.
func (m *Membership) Epoch(target string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.state[target]; ok {
		return st.epoch
	}
	return -1
}

// Quarantine marks a worker dead AND sticky: health probes cannot
// revive it. The replica cross-check calls it when a worker's frame
// bytes diverge from quorum — the worker is up, answering, and wrong,
// which is strictly worse than down.
func (m *Membership) Quarantine(target, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[target]
	if !ok || st.quarantined {
		return false
	}
	st.live = false
	st.quarantined = true
	st.reason = reason
	return true
}

// Status reports every member's state, sorted by target for stable
// rendering.
func (m *Membership) Status() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberStatus, 0, len(m.ring.targets))
	for _, t := range m.ring.targets {
		st := m.state[t]
		out = append(out, MemberStatus{
			Target:      t,
			Live:        st.live,
			Quarantined: st.quarantined,
			Reason:      st.reason,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}
