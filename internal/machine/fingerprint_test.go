package machine

import (
	"math"
	"math/rand"
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

// UncoreFingerprint must change with every field except the four the
// model's clock half alone reads (or that only name the machine), so
// clock and vector-width variants share their base's uncore memo
// entries and nothing else does. The field list comes from reflection,
// so a new Machine, CacheLevel or Vector field without a tweak here
// fails.
func TestUncoreFingerprintExcludesOnlyClockAndNames(t *testing.T) {
	excluded := map[string]bool{"Name": true, "Label": true, "ClockHz": true, "Vector.WidthBits": true}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Machine{})) {
		switch f.Name {
		case "Caches", "Vector":
			inner := f.Type
			if inner.Kind() == reflect.Slice {
				inner = inner.Elem()
			}
			for i := 0; i < inner.NumField(); i++ {
				fields = append(fields, f.Name+"."+inner.Field(i).Name)
			}
		default:
			fields = append(fields, f.Name)
		}
	}
	for _, field := range fields {
		if fieldTweaks[field] == nil {
			t.Errorf("no tweak for field %s", field)
		}
	}
	if len(fields) != len(fieldTweaks) {
		t.Errorf("%d fields, %d tweaks", len(fields), len(fieldTweaks))
	}
	base := SG2042().UncoreFingerprint()
	for field, tweak := range fieldTweaks {
		m := SG2042()
		tweak(m)
		if changed := m.UncoreFingerprint() != base; changed == excluded[field] {
			t.Errorf("tweaking %s: uncore fingerprint changed = %v, want %v", field, changed, !excluded[field])
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

// Suite-cache snapshot keys and the fabric's ring placement are built
// from these values, so a hasher change that moves any of them breaks
// every persisted snapshot and reshuffles every fleet. Pinned for each
// registry preset and one derived clock variant, which shares its
// base's uncore fingerprint.
func TestFingerprintGolden(t *testing.T) {
	golden := []struct {
		label        string
		full, uncore uint64
	}{
		{"V1", 0xc2fc619a4bc32592, 0xd8349e79703e81fe},
		{"V2", 0x633ddd01169c212f, 0xee68a9ab25ffbbc6},
		{"SG2042", 0xbd99dee0dada700d, 0xaabfb7cc220c727f},
		{"Rome", 0x7ac5a764bb082f6c, 0x177e598cf8e04e84},
		{"Broadwell", 0x06e3d87be5e03fe0, 0xc586c8f0fad3e980},
		{"Icelake", 0x14fc83427dcda3fa, 0xa3473add63e13030},
		{"Sandybridge", 0x0adf8a9857ebd4de, 0xb0710d8c157a2d8b},
		{"SG2044", 0x94198596a3e94825, 0xa60609d59e141e9b},
		{"SG2042x2", 0xca754f2e2e6e8a59, 0x258ec3a68fb2a155},
		{"SG2042/2.6GHz", 0xfd6b60094b861d7a, 0xaabfb7cc220c727f},
	}
	ms := DefaultRegistry().Machines()
	v, err := SG2042().WithClock(2.6e9)
	if err != nil {
		t.Fatal(err)
	}
	ms = append(ms, v)
	if len(ms) != len(golden) {
		t.Fatalf("%d machines, %d golden rows: pin the new preset", len(ms), len(golden))
	}
	for i, m := range ms {
		g := golden[i]
		if m.Label != g.label {
			t.Errorf("machine %d is %s, golden row is %s", i, m.Label, g.label)
			continue
		}
		if got := m.Fingerprint(); got != g.full {
			t.Errorf("%s: Fingerprint = %#016x, want %#016x", m.Label, got, g.full)
		}
		if got := m.UncoreFingerprint(); got != g.uncore {
			t.Errorf("%s: UncoreFingerprint = %#016x, want %#016x", m.Label, got, g.uncore)
		}
	}
}

// byteSerialU64 is the reference FNV-1a fold of v's eight little-endian
// bytes, one multiply per byte.
func byteSerialU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// fieldHasher.u64 skips runs of zero bytes; it must equal the
// byte-serial fold for every value, from any starting state.
func TestFieldHasherU64MatchesByteSerial(t *testing.T) {
	vals := []uint64{0, 1, 0xff, 0x100, math.MaxUint64, math.MaxUint64 >> 8, 1 << 63,
		math.Float64bits(1), math.Float64bits(2.6e9), math.Float64bits(-0.5)}
	for k := 0; k < 8; k++ {
		for _, b := range []uint64{1, 0x80, 0xff} {
			vals = append(vals, b<<(8*k)) // a single nonzero byte
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := rng.Uint64()
		// Zero a random run of low and of high bytes, the shapes the
		// fast path special-cases.
		lo, hi := rng.Intn(9), rng.Intn(9)
		if lo < 8 {
			v &^= 1<<(8*lo) - 1
		} else {
			v = 0
		}
		v &= math.MaxUint64 >> (8 * hi)
		vals = append(vals, v, rng.Uint64())
	}
	for _, start := range []uint64{fnvOffset64, 0, rng.Uint64()} {
		for _, v := range vals {
			f := fieldHasher{h: start}
			f.u64(v)
			if want := byteSerialU64(start, v); f.h != want {
				t.Fatalf("u64(%#x) from %#x = %#x, byte-serial FNV-1a gives %#x", v, start, f.h, want)
			}
		}
	}
}

// Clock and vector-width variants share their base's uncore memo
// entries, and the campaign planner hands them their parent's uncore
// fingerprint without hashing, only while those derivations change
// nothing but the fields the uncore walk leaves out.
func TestClockAndVectorVariantsKeepUncoreFingerprint(t *testing.T) {
	for _, m := range DefaultRegistry().Machines() {
		want := m.UncoreFingerprint()
		v, err := m.WithClock(m.ClockHz * 1.3)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.UncoreFingerprint(); got != want {
			t.Errorf("%s: uncore fingerprint %#x, its base's %#x", v.Label, got, want)
		}
		if m.Vector.ISA == NoVector {
			continue
		}
		if v, err = m.WithVectorBits(m.Vector.WidthBits * 2); err != nil {
			t.Fatal(err)
		}
		if got := v.UncoreFingerprint(); got != want {
			t.Errorf("%s: uncore fingerprint %#x, its base's %#x", v.Label, got, want)
		}
	}
}
