package machine

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/prec"
)

func TestWithCores(t *testing.T) {
	base := SG2042()
	for _, n := range []int{1, 2, 3, 8, 32, 64, 128} {
		v, err := base.WithCores(n)
		if err != nil {
			t.Fatalf("WithCores(%d): %v", n, err)
		}
		if v.Cores != n || len(v.NUMARegionOf) != n {
			t.Errorf("WithCores(%d): cores=%d map=%d", n, v.Cores, len(v.NUMARegionOf))
		}
		if want := 4; n >= 4 && v.NUMARegions != want {
			t.Errorf("WithCores(%d): %d NUMA regions, want %d", n, v.NUMARegions, want)
		}
		if n < 4 && v.NUMARegions != 1 {
			t.Errorf("WithCores(%d): %d NUMA regions, want collapse to 1", n, v.NUMARegions)
		}
		// Total controllers — and socket bandwidth — are conserved even
		// when regions collapse.
		if totalMemBW(v) != totalMemBW(base) {
			t.Errorf("WithCores(%d): total bandwidth %v, want %v",
				n, totalMemBW(v), totalMemBW(base))
		}
		if !strings.HasSuffix(v.Label, "/c"+strconv.Itoa(n)) {
			t.Errorf("WithCores(%d): label %q", n, v.Label)
		}
	}
	if _, err := base.WithCores(0); err == nil {
		t.Error("WithCores(0) accepted")
	}
	if base.Cores != 64 {
		t.Error("WithCores mutated the receiver")
	}
}

func TestWithClock(t *testing.T) {
	v, err := SG2042().WithClock(2.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if v.ClockHz != 2.5e9 {
		t.Errorf("clock = %v", v.ClockHz)
	}
	if v.Label != "SG2042/2.5GHz" {
		t.Errorf("label = %q", v.Label)
	}
	if v.CtrlBW != SG2042().CtrlBW {
		t.Error("clock derivation should not touch memory bandwidth")
	}
	if _, err := SG2042().WithClock(0); err == nil {
		t.Error("WithClock(0) accepted")
	}
}

func TestWithVectorBits(t *testing.T) {
	v, err := SG2042().WithVectorBits(256)
	if err != nil {
		t.Fatal(err)
	}
	if v.Vector.WidthBits != 256 || v.Label != "SG2042/v256" {
		t.Errorf("got width=%d label=%q", v.Vector.WidthBits, v.Label)
	}
	// Peak vector flops scale with width (per-lane rates kept).
	if got, want := v.PeakVectorFlops(prec.F64), 2*SG2042().PeakVectorFlops(prec.F64); got != want {
		t.Errorf("peak flops at 256 bits = %v, want %v", got, want)
	}
	if _, err := VisionFiveV2().WithVectorBits(256); err == nil ||
		!strings.Contains(err.Error(), "no vector unit") {
		t.Errorf("widening the vectorless U74 should fail, got %v", err)
	}
	if _, err := SG2042().WithVectorBits(0); err == nil {
		t.Error("WithVectorBits(0) accepted")
	}
}

func TestWithNUMARegions(t *testing.T) {
	base := SG2042() // 4 regions x 1 controller
	for _, n := range []int{1, 2, 4} {
		v, err := base.WithNUMARegions(n)
		if err != nil {
			t.Fatalf("WithNUMARegions(%d): %v", n, err)
		}
		if v.NUMARegions != n {
			t.Errorf("WithNUMARegions(%d): regions = %d", n, v.NUMARegions)
		}
		// Controller count is conserved: whole-socket bandwidth unchanged.
		if totalMemBW(v) != totalMemBW(base) {
			t.Errorf("WithNUMARegions(%d): total bandwidth %v, want %v",
				n, totalMemBW(v), totalMemBW(base))
		}
	}
	if _, err := base.WithNUMARegions(3); err == nil ||
		!strings.Contains(err.Error(), "divide") {
		t.Errorf("4 controllers across 3 regions should fail, got %v", err)
	}
	if _, err := base.WithNUMARegions(0); err == nil {
		t.Error("WithNUMARegions(0) accepted")
	}
	if _, err := base.WithNUMARegions(65); err == nil {
		t.Error("more regions than cores accepted")
	}
}

// TestDerivationsCompose: chained what-ifs stay valid and keep marking
// the label.
func TestDerivationsCompose(t *testing.T) {
	v, err := SG2042().WithCores(32)
	if err != nil {
		t.Fatal(err)
	}
	v, err = v.WithVectorBits(512)
	if err != nil {
		t.Fatal(err)
	}
	v, err = v.WithClock(3e9)
	if err != nil {
		t.Fatal(err)
	}
	if v.Label != "SG2042/c32/v512/3GHz" {
		t.Errorf("label = %q", v.Label)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWithClockRejectsNonFinite: NaN and infinite clocks must fail the
// derivation, never propagate NaN into a report.
func TestWithClockRejectsNonFinite(t *testing.T) {
	for _, hz := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2e9} {
		if _, err := SG2042().WithClock(hz); err == nil {
			t.Errorf("WithClock(%v) accepted", hz)
		}
	}
}

// TestWithClockLabelsAreDistinct: nearby clock values must not collide
// to the same series label.
func TestWithClockLabelsAreDistinct(t *testing.T) {
	a, err := SG2042().WithClock(2.0001e9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SG2042().WithClock(2.0002e9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label == b.Label {
		t.Errorf("labels collide: %q", a.Label)
	}
}

// TestWithCoresBounded: a network-supplied core count cannot allocate
// an unbounded NUMA map.
func TestWithCoresBounded(t *testing.T) {
	if _, err := SG2042().WithCores(MaxCores + 1); err == nil {
		t.Error("WithCores above MaxCores accepted")
	}
	if _, err := SG2042().WithCores(1 << 30); err == nil {
		t.Error("WithCores(1<<30) accepted")
	}
}

// TestDerivationOwnership: every What-if helper returns a new machine
// the caller owns outright. Scribbling over one derivation's NUMA map
// and cache list leaves the receiver and a second derivation of the
// same variant untouched.
func TestDerivationOwnership(t *testing.T) {
	for _, c := range []struct {
		name   string
		derive func(*Machine) (*Machine, error)
	}{
		{"WithCores", func(m *Machine) (*Machine, error) { return m.WithCores(32) }},
		{"WithClock", func(m *Machine) (*Machine, error) { return m.WithClock(2.5e9) }},
		{"WithVectorBits", func(m *Machine) (*Machine, error) { return m.WithVectorBits(256) }},
		{"WithNUMARegions", func(m *Machine) (*Machine, error) { return m.WithNUMARegions(2) }},
		{"WithSockets", func(m *Machine) (*Machine, error) { return m.WithSockets(2) }},
		{"WithNodes", func(m *Machine) (*Machine, error) { return m.WithNodes(2) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := SG2042()
			a, err := c.derive(base)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.derive(base)
			if err != nil {
				t.Fatal(err)
			}
			if a == base || b == base || a == b {
				t.Fatal("derivation returned a shared pointer")
			}
			a.NUMARegionOf[0] = 99
			a.Caches[0].Name = "scribbled"
			a.Caches[0].SizeBytes = -1
			if !reflect.DeepEqual(base, SG2042()) {
				t.Error("mutating a derivation changed the receiver")
			}
			fresh, err := c.derive(SG2042())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, fresh) {
				t.Error("mutating a derivation changed a second derivation")
			}
		})
	}
}
