package fabric

import (
	"strings"
	"testing"
)

func newTestMembership(t *testing.T, n int) *Membership {
	t.Helper()
	m, err := NewMembership(ringTargets(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reasonOf reads a member's exclusion reason from Status.
func reasonOf(m *Membership, target string) string {
	for _, st := range m.Status() {
		if st.Target == target {
			return st.Reason
		}
	}
	return ""
}

func TestMembershipTransitions(t *testing.T) {
	m := newTestMembership(t, 3)
	w := ringTargets(3)[1]

	if len(m.Live()) != 3 {
		t.Fatalf("fresh membership has %d live, want 3", len(m.Live()))
	}
	if !m.MarkDead(w, "connection refused") {
		t.Fatal("first MarkDead did not report a transition")
	}
	if m.MarkDead(w, "again") {
		t.Fatal("second MarkDead reported a transition")
	}
	if got := reasonOf(m, w); got != "connection refused" {
		t.Fatalf("Reason = %q (repeat MarkDead must not overwrite)", got)
	}
	if dead := m.DeadSet(); len(dead) != 1 || !dead[w] {
		t.Fatalf("DeadSet = %v, want {%s}", dead, w)
	}
	if !m.MarkLive(w) {
		t.Fatal("MarkLive on a dead worker did not report a transition")
	}
	if m.MarkLive(w) {
		t.Fatal("MarkLive on a live worker reported a transition")
	}
	if got := reasonOf(m, w); got != "" {
		t.Fatalf("Reason after revival = %q, want empty", got)
	}
	if len(m.DeadSet()) != 0 {
		t.Fatalf("DeadSet after revival = %v, want empty", m.DeadSet())
	}
}

func TestMembershipEpochCountsRevivals(t *testing.T) {
	m := newTestMembership(t, 2)
	w := ringTargets(2)[0]
	if got := m.Epoch(w); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}
	for i := 1; i <= 3; i++ {
		m.MarkDead(w, "probe failed")
		m.MarkLive(w)
		if got := m.Epoch(w); got != i {
			t.Fatalf("epoch after %d bounce(s) = %d", i, got)
		}
	}
	if got := m.Epoch("http://nobody:1"); got != -1 {
		t.Fatalf("unknown target epoch = %d, want -1", got)
	}
}

func TestMembershipQuarantineIsSticky(t *testing.T) {
	m := newTestMembership(t, 3)
	w := ringTargets(3)[2]

	if !m.Quarantine(w, "replica mismatch: point 4") {
		t.Fatal("Quarantine did not report a transition")
	}
	if m.Quarantine(w, "again") {
		t.Fatal("repeat Quarantine reported a transition")
	}
	// The defining property: a quarantined worker passes health probes
	// (it is up — just wrong), so MarkLive must refuse to revive it.
	if m.MarkLive(w) {
		t.Fatal("MarkLive revived a quarantined worker")
	}
	if dead := m.DeadSet(); !dead[w] {
		t.Fatalf("quarantined worker missing from DeadSet %v", dead)
	}
	var st *MemberStatus
	for _, ms := range m.Status() {
		if ms.Target == w {
			ms := ms
			st = &ms
			break
		}
	}
	if st == nil || !st.Quarantined || st.Live {
		t.Fatalf("Status for %s = %+v, want quarantined and not live", w, st)
	}
	if !strings.Contains(st.Reason, "replica mismatch") {
		t.Fatalf("quarantine reason %q lost the mismatch detail", st.Reason)
	}
}
