package repro

import (
	"os"
	"testing"
)

// Wire byte pins: the SHA-256 and length of three binary bodies the
// daemon serves — every experiment, the example campaign and one
// roofline report. A change to the frame encoder, the table shaping,
// the model or the presets moves them; a change that does says why.
func TestWireGoldenDigests(t *testing.T) {
	eng := NewEngine(Options{Parallel: 4})
	all, err := eng.RunBinary("all")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("examples/campaign/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := CampaignSpecFromJSON(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := eng.CampaignBinary(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RooflineReport("SG2042", F64)
	if err != nil {
		t.Fatal(err)
	}
	roofline, err := ReportWire("SG2042", "roofline", out)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		sha256 string
		size   int
	}{
		{"all experiments", all, "87f829f9bf813bead972eb64629af7a137043549b636f60d4c48909d2baf3e7b", 11010},
		{"example campaign", campaign, "2ec2c63b2476ae03d343c41fe7733c16ff2f0d62a74014996b52a82b5ecdf1e8", 11040},
		{"SG2042 roofline", roofline, "320fb777657cbb464e62ddb1e160097e729ae6709be88e16554bebe15f520429", 5148},
	} {
		if got := digest(c.body); got != c.sha256 || len(c.body) != c.size {
			t.Errorf("%s: SHA-256 %s (%d B), want %s (%d B)", c.name, got, len(c.body), c.sha256, c.size)
		}
	}
}

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
