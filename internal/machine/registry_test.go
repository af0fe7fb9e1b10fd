package machine

import (
	"errors"
	"strings"
	"testing"
)

func TestDefaultRegistryContents(t *testing.T) {
	r := DefaultRegistry()
	if r != DefaultRegistry() {
		t.Error("DefaultRegistry built a second registry")
	}
	labels := r.Labels()
	// Registration order: the paper's order, then the what-if presets.
	want := []string{"V1", "V2", "SG2042", "Rome", "Broadwell", "Icelake", "Sandybridge", "SG2044", "SG2042x2"}
	if len(labels) != len(want) {
		t.Fatalf("default registry has %d machines, want %d (the paper's seven + SG2044 + SG2042x2)", len(labels), len(want))
	}
	for i, l := range want {
		if labels[i] != l {
			t.Errorf("label %d = %q, want %q", i, labels[i], l)
		}
	}
	for _, l := range want {
		if _, ok := r.Get(l); !ok {
			t.Errorf("Get(%q) missing", l)
		}
	}
}

func TestRegistryGetIsCaseInsensitive(t *testing.T) {
	r := DefaultRegistry()
	for _, l := range []string{"sg2042", "SG2042", " Sg2042 "} {
		m, ok := r.Get(l)
		if !ok || m.Label != "SG2042" {
			t.Errorf("Get(%q) = %v, %v", l, m, ok)
		}
	}
	if _, ok := r.Get("SG9999"); ok {
		t.Error("Get(SG9999) found a machine")
	}
}

// TestRegistryResolve: every spelling of a registered label resolves to
// the machine under its canonical label; anything else is the typed
// unknown-machine error, listing the known labels.
func TestRegistryResolve(t *testing.T) {
	r := DefaultRegistry()
	for _, c := range []struct{ label, want string }{
		{"SG2042", "SG2042"}, {"sg2042", "SG2042"}, {" Sg2042 ", "SG2042"},
		{"sg2044", "SG2044"}, {"SG2042X2", "SG2042x2"}, {"rome", "Rome"},
	} {
		m, err := r.Resolve(c.label)
		if err != nil || m.Label != c.want {
			t.Errorf("Resolve(%q) = %v, %v, want %s", c.label, m, err, c.want)
		}
		if label, err := r.Label(c.label); err != nil || label != c.want {
			t.Errorf("Label(%q) = %q, %v, want %s", c.label, label, err, c.want)
		}
	}
	m, err := r.Resolve("nope")
	var unknown *UnknownMachineError
	if m != nil || !errors.As(err, &unknown) || unknown.Label != "nope" {
		t.Fatalf("Resolve(nope) = %v, %v, want *UnknownMachineError", m, err)
	}
	const want = `unknown machine "nope" (want one of V1, V2, SG2042, Rome, Broadwell, Icelake, Sandybridge, SG2044, SG2042x2)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if label, lerr := r.Label("nope"); label != "" || lerr == nil || lerr.Error() != want {
		t.Errorf("Label(nope) = %q, %v, want the Resolve error", label, lerr)
	}
}

func TestRegistryIsolation(t *testing.T) {
	r := DefaultRegistry()
	m, _ := r.Get("SG2042")
	m.Cores = 1
	m.NUMARegionOf[0] = 99
	resolved, _ := r.Resolve("SG2042")
	resolved.Cores = 2
	r.Machines()[2].Cores = 3
	again, _ := r.Get("SG2042")
	if again.Cores != 64 || again.NUMARegionOf[0] != 0 {
		t.Error("mutating a Get, Resolve or Machines result reached the registry")
	}
}

func TestRegistryRejects(t *testing.T) {
	if _, err := newRegistry(SG2042(), SG2042()); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate label accepted: %v", err)
	}
	upper := SG2042()
	upper.Label = "sg2042"
	if _, err := newRegistry(SG2042(), upper); err == nil {
		t.Error("labels differing only in case accepted")
	}
	if _, err := newRegistry(nil); err == nil {
		t.Error("nil machine accepted")
	}
	bad := SG2042()
	bad.Cores = 0
	bad.Label = "broken"
	if _, err := newRegistry(bad); err == nil {
		t.Error("invalid machine accepted")
	}
	unlabeled := SG2042()
	unlabeled.Label = ""
	if _, err := newRegistry(unlabeled); err == nil {
		t.Error("empty label accepted")
	}
}

func TestRegistryMachinesOrder(t *testing.T) {
	r, err := newRegistry(SG2044(), SG2042())
	if err != nil {
		t.Fatal(err)
	}
	ms := r.Machines()
	if len(ms) != 2 || ms[0].Label != "SG2044" || ms[1].Label != "SG2042" {
		t.Errorf("Machines() order wrong: %v", ms)
	}
	if labels := r.Labels(); labels[0] != "SG2044" || labels[1] != "SG2042" {
		t.Errorf("Labels() = %v", labels)
	}
}

func TestSG2044Preset(t *testing.T) {
	m := SG2044()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sg := SG2042()
	if m.Vector.ISA != RVV10 {
		t.Errorf("SG2044 vector ISA = %v, want ratified RVV v1.0", m.Vector.ISA)
	}
	if m.NUMARegions != 1 {
		t.Errorf("SG2044 NUMA regions = %d, want the single unified region", m.NUMARegions)
	}
	if m.ClockHz <= sg.ClockHz {
		t.Error("SG2044 should clock above the SG2042")
	}
	if totalMemBW(m) <= totalMemBW(sg) {
		t.Error("SG2044's DDR5 system should out-bandwidth the SG2042's DDR4")
	}
}
