package perfmodel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/placement"
)

// The topology-keyed sharing memo must answer exactly what a fresh
// Map/Analyze computes, for the machine asked about and for a variant
// that differs only off-topology and so hits its base's entry.
func TestSharingForMatchesFreshAnalysis(t *testing.T) {
	for _, base := range machine.DefaultRegistry().Machines() {
		variant := base.Clone()
		variant.Label += "-variant"
		variant.ClockHz *= 1.5
		variant.CoreMemBW *= 2
		for _, m := range []*machine.Machine{base, variant} {
			for _, pol := range placement.Policies {
				for threads := 1; threads <= m.Cores; threads++ {
					got, err := sharingFor(m, pol, threads)
					if err != nil {
						t.Fatalf("%s %v %d threads: %v", m.Label, pol, threads, err)
					}
					cores, err := placement.Map(m, pol, threads)
					if err != nil {
						t.Fatal(err)
					}
					if want := placement.Analyze(m, cores); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v %d threads: memoized sharing %+v, fresh %+v", m.Label, pol, threads, got, want)
					}
				}
			}
		}
	}
}

// Invalid inputs are never memoized, so each error names the machine
// that asked even when a topology twin asked first.
func TestSharingForErrorsNameTheAskingMachine(t *testing.T) {
	a := machine.SG2042()
	b := a.Clone()
	b.Label = "SG2042-fast"
	b.ClockHz *= 2
	for _, m := range []*machine.Machine{a, b, a} {
		_, err := sharingFor(m, placement.Block, m.Cores+1)
		if err == nil || !strings.HasSuffix(err.Error(), " of "+m.Label) {
			t.Errorf("sharingFor on %s with too many threads: err = %v, want it to name %s", m.Label, err, m.Label)
		}
	}
	if _, err := sharingFor(a, placement.Block, 0); err == nil {
		t.Error("sharingFor accepted 0 threads")
	}
}
