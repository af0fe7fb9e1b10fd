package repro

import "testing"

// TestDecodeWireAllocs bounds the allocations of decoding every
// experiment's binary body. They are the result's slices and its
// decoded strings; a decoder change must not add to them.
func TestDecodeWireAllocs(t *testing.T) {
	body, err := NewEngine(Options{}).RunBinary("all")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 551
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeWire(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("DecodeWire(all) = %.0f allocs, want <= %d", allocs, bound)
	}
}
