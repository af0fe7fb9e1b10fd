package machine

import (
	"reflect"
	"testing"
)

// The fingerprint must cover every field; these counts pin the struct
// shapes the hand-rolled hasher walks. If one fails you added a field —
// extend Fingerprint in fingerprint.go, then bump the count.
func TestFingerprintCoversAllFields(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(Machine{}), 28},
		{reflect.TypeOf(CacheLevel{}), 8},
		{reflect.TypeOf(Vector{}), 4},
	} {
		if got := c.typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, Fingerprint hashes %d: extend machine.Fingerprint for the new field(s), then update this count",
				c.typ.Name(), got, c.want)
		}
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := SG2042(), SG2042()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical machines fingerprint differently")
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Error("clone fingerprints differently from original")
	}
}

// fieldTweaks changes one Machine field each, keyed by field name.
var fieldTweaks = map[string]func(*Machine){
	"Name":                       func(m *Machine) { m.Name += "x" },
	"Label":                      func(m *Machine) { m.Label += "x" },
	"ClockHz":                    func(m *Machine) { m.ClockHz *= 2 },
	"Cores":                      func(m *Machine) { m.Cores++ },
	"ClusterSize":                func(m *Machine) { m.ClusterSize++ },
	"NUMARegionOf":               func(m *Machine) { m.NUMARegionOf[3]++ },
	"NUMARegions":                func(m *Machine) { m.NUMARegions++ },
	"MemCtrlPerNUMA":             func(m *Machine) { m.MemCtrlPerNUMA++ },
	"CtrlBW":                     func(m *Machine) { m.CtrlBW *= 2 },
	"CoreMemBW":                  func(m *Machine) { m.CoreMemBW *= 2 },
	"MemLatencyNs":               func(m *Machine) { m.MemLatencyNs++ },
	"MLP":                        func(m *Machine) { m.MLP++ },
	"Caches.SizeBytes":           func(m *Machine) { m.Caches[0].SizeBytes *= 2 },
	"Caches.LineBytes":           func(m *Machine) { m.Caches[0].LineBytes *= 2 },
	"Caches.Assoc":               func(m *Machine) { m.Caches[0].Assoc++ },
	"Caches.Shared":              func(m *Machine) { m.Caches[0].Shared = PerSocket },
	"Caches.BWPerCore":           func(m *Machine) { m.Caches[0].BWPerCore *= 2 },
	"Caches.BWAggregate":         func(m *Machine) { m.Caches[0].BWAggregate *= 2 },
	"Caches.LatencyNs":           func(m *Machine) { m.Caches[0].LatencyNs++ },
	"Caches.Name":                func(m *Machine) { m.Caches[0].Name += "x" },
	"Vector.ISA":                 func(m *Machine) { m.Vector.ISA = RVV10 },
	"Vector.WidthBits":           func(m *Machine) { m.Vector.WidthBits *= 2 },
	"Vector.FMA":                 func(m *Machine) { m.Vector.FMA = !m.Vector.FMA },
	"Vector.Pipes":               func(m *Machine) { m.Vector.Pipes++ },
	"ScalarFlopsPerCycle":        func(m *Machine) { m.ScalarFlopsPerCycle *= 2 },
	"VectorFlopsPerCyclePerLane": func(m *Machine) { m.VectorFlopsPerCyclePerLane *= 2 },
	"IssueWidth":                 func(m *Machine) { m.IssueWidth *= 2 },
	"OutOfOrder":                 func(m *Machine) { m.OutOfOrder = !m.OutOfOrder },
	"ForkJoinNsBase":             func(m *Machine) { m.ForkJoinNsBase++ },
	"ForkJoinNsPerThread":        func(m *Machine) { m.ForkJoinNsPerThread++ },
	"StragglerNs":                func(m *Machine) { m.StragglerNs++ },
	"JitterFullOccupancy":        func(m *Machine) { m.JitterFullOccupancy *= 2 },
	"Sockets":                    func(m *Machine) { m.Sockets = 1 },
	"Nodes":                      func(m *Machine) { m.Nodes = 1 },
	"XSocketBW":                  func(m *Machine) { m.XSocketBW = 24e9 },
	"XSocketLatencyNs":           func(m *Machine) { m.XSocketLatencyNs = 200 },
	"NodeBW":                     func(m *Machine) { m.NodeBW = 23e9 },
	"NodeLatencyNs":              func(m *Machine) { m.NodeLatencyNs = 1300 },
}

// Every single-field tweak must change the fingerprint — the property
// the suite cache depends on to distinguish tweaked copies of presets.
func TestFingerprintDistinguishesFields(t *testing.T) {
	base := SG2042().Fingerprint()
	for field, tweak := range fieldTweaks {
		m := SG2042()
		tweak(m)
		if m.Fingerprint() == base {
			t.Errorf("tweaking %s did not change the fingerprint", field)
		}
	}
}

// TopologyFingerprint must change with every field placement reads and
// with no other, so clock and cache variants share placement memos.
func TestTopologyFingerprintCoversOnlyTopology(t *testing.T) {
	topology := map[string]bool{"Cores": true, "ClusterSize": true, "NUMARegionOf": true,
		"NUMARegions": true, "Sockets": true, "Nodes": true}
	base := SG2042().TopologyFingerprint()
	for field, tweak := range fieldTweaks {
		m := SG2042()
		tweak(m)
		if changed := m.TopologyFingerprint() != base; changed != topology[field] {
			t.Errorf("tweaking %s: topology fingerprint changed = %v, want %v", field, changed, topology[field])
		}
	}
	for field := range topology {
		if fieldTweaks[field] == nil {
			t.Errorf("no tweak for topology field %s", field)
		}
	}
}

// Adjacent variable-length fields must not alias through concatenation.
func TestFingerprintNoFieldAliasing(t *testing.T) {
	a, b := SG2042(), SG2042()
	a.Name, a.Label = "AB", "C"
	b.Name, b.Label = "A", "BC"
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("shifted string boundary between Name and Label collides")
	}
}

func TestFingerprintZeroAlloc(t *testing.T) {
	m := SG2042()
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Fingerprint() }); allocs > 0 {
		t.Errorf("Fingerprint allocates %.1f times per call, want 0", allocs)
	}
}
