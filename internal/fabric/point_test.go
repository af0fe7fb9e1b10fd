package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/kernels"
)

var testSpecJSON = []byte(`{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [128, 256]}],
	"threads": [0, 8],
	"precisions": ["f32", "f64"]
}`)

func testSpec(t testing.TB) repro.CampaignSpec {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(testSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func evalPoints(t testing.TB, spec repro.CampaignSpec) []repro.CampaignPoint {
	t.Helper()
	res, err := repro.NewEngine(repro.Options{}).Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

// TestPointCodecRoundTrip: decode(encode(p)) is bit-identical for
// every point of a real campaign grid.
func TestPointCodecRoundTrip(t *testing.T) {
	for _, p := range evalPoints(t, testSpec(t)) {
		frame, err := appendPoint(nil, p)
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		got, err := decodePoint(frame)
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("point %d not bit-identical across the codec", p.Index)
		}
	}
}

// TestFrameStreamRoundTrip: points written as a length-prefixed stream
// read back in order, with a clean EOF at the end and a truncation
// error — not EOF — on a cut stream.
func TestFrameStreamRoundTrip(t *testing.T) {
	points := evalPoints(t, testSpec(t))[:4]
	var buf bytes.Buffer
	for _, p := range points {
		frame, err := appendPoint(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&buf, frame); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()

	br := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range points {
		frame, err := readRawFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodePoint(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d differs after stream round-trip", i)
		}
	}
	if _, err := readRawFrame(br); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}

	cut := bufio.NewReader(bytes.NewReader(stream[:len(stream)-3]))
	var err error
	for err == nil {
		_, err = readRawFrame(cut)
	}
	if err == io.EOF || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("cut stream = %v, want truncation error", err)
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	// Over-long uvarint.
	overlong := bytes.Repeat([]byte{0xFF}, 10)
	if _, err := readRawFrame(bufio.NewReader(bytes.NewReader(overlong))); err == nil || err == io.EOF {
		t.Fatalf("over-long uvarint = %v, want error", err)
	}
	// Declared length beyond the cap: refused before allocation.
	huge := []byte{0x81, 0x80, 0x80, 0x80, 0x08} // 1<<31 + 1
	if _, err := readRawFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("huge length = %v, want out-of-range error", err)
	}
	// Zero length.
	if _, err := readRawFrame(bufio.NewReader(bytes.NewReader([]byte{0x00}))); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("zero length = %v, want out-of-range error", err)
	}
}

// realFrame is the first point of testSpecJSON's grid and its frame.
func realFrame(tb testing.TB) (repro.CampaignPoint, []byte) {
	tb.Helper()
	p := evalPoints(tb, testSpec(tb))[0]
	frame, err := appendPoint(nil, p)
	if err != nil {
		tb.Fatal(err)
	}
	return p, frame
}

// fuzzSeed reads one committed FuzzDecodePoint corpus entry.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodePoint", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(data), "\n[]byte(")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(s)
}

// TestDecodePointCorruptFrames: every way a frame can differ from what
// appendPoint produces is an error — except the tamper fault, a flipped
// bit in the last float, which must stay silent for the replica
// cross-check to catch.
func TestDecodePointCorruptFrames(t *testing.T) {
	p, frame := realFrame(t)
	// splice returns frame with the n bytes at offset at replaced.
	splice := func(at, n int, with ...byte) []byte {
		b := append([]byte(nil), frame[:at]...)
		return append(append(b, with...), frame[at+n:]...)
	}
	// The class cells close the frame, one minCellSize cell per class
	// (class and ratio count are one-byte uvarints here), and the index
	// is a one-byte uvarint right after the magic.
	last := len(frame) - minCellSize
	prev := last - minCellSize
	idx := len(pointMagic)
	if frame[prev] == 0 || frame[prev] >= frame[last] || frame[last] >= 0x80 || frame[idx] >= 0x80 {
		t.Fatalf("unexpected frame layout: index %d, classes %d, %d", frame[idx], frame[prev], frame[last])
	}
	countAt := len(frame) - len(p.ByClass)*minCellSize - 1

	for i := 0; i < len(frame); i++ {
		if _, err := decodePoint(frame[:i]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame decoded", i, len(frame))
		}
	}
	for name, tc := range map[string]struct {
		frame []byte
		want  string
	}{
		"wrong magic":         {splice(0, 1, frame[0]^0xFF), "magic"},
		"old table frame":     {fuzzSeed(t, "old-wire-table"), "magic"},
		"repeated class":      {splice(last, 1, frame[prev]), "repeated"},
		"out-of-order class":  {splice(last, 1, frame[prev]-1), "out of order"},
		"trailing byte":       {splice(len(frame), 0, 0), "trailing"},
		"non-minimal uvarint": {splice(idx, 1, frame[idx]|0x80, 0), "non-minimal"},
		"index beyond MaxInt": {splice(idx, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), "out of range"},
		"huge class count": {
			splice(countAt, len(frame)-countAt, append(binary.AppendUvarint(nil, 1<<20), 1, 2, 3)...),
			"count 1048576 exceeds",
		},
	} {
		if _, err := decodePoint(tc.frame); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}

	// The tamper fault (faulttest's modeTamper) flips the low bit of the
	// frame's last byte: it must decode, wrong only in the last class's
	// Ratio.Max.
	got, err := decodePoint(splice(len(frame)-1, 1, frame[len(frame)-1]^0x01))
	if err != nil {
		t.Fatalf("tampered frame: %v", err)
	}
	c := kernels.Class(frame[last])
	cell := got.ByClass[c]
	if cell.Ratio.Max == p.ByClass[c].Ratio.Max {
		t.Fatal("tampered frame decoded to the original Ratio.Max")
	}
	cell.Ratio.Max = p.ByClass[c].Ratio.Max
	got.ByClass[c] = cell
	if !reflect.DeepEqual(p, got) {
		t.Fatal("tampered frame differs beyond the last class's Ratio.Max")
	}
}

// FuzzDecodePoint: frames arrive from the network, so decoding must
// never panic, and any frame that decodes must re-encode to exactly its
// own bytes — the canonical form replica byte-voting relies on.
func FuzzDecodePoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := decodePoint(frame)
		if err != nil {
			return
		}
		again, err := appendPoint(nil, p)
		if err != nil {
			t.Fatalf("decoded point does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, frame)
		}
	})
}

// BenchmarkEncodePointFrame is one point's whole hop through the codec:
// the worker's appendPoint and writeFrame, the coordinator's
// readRawFrame and decodePoint.
func BenchmarkEncodePointFrame(b *testing.B) {
	p, _ := realFrame(b)
	var stream bytes.Buffer
	br := bufio.NewReader(&stream)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		br.Reset(&stream)
		var err error
		if buf, err = appendPoint(buf[:0], p); err != nil {
			b.Fatal(err)
		}
		if err := writeFrame(&stream, buf); err != nil {
			b.Fatal(err)
		}
		raw, err := readRawFrame(br)
		if err != nil {
			b.Fatal(err)
		}
		if benchPoint, err = decodePoint(raw); err != nil {
			b.Fatal(err)
		}
	}
}

var benchPoint repro.CampaignPoint

// mixKey spreads sequential integers over the full 64-bit space, like
// the well-mixed machine fingerprints real campaigns key on.
func mixKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	targets := []string{"http://a", "http://b", "http://c"}
	r1, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"http://c", "http://a", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for key := uint64(0); key < 4096; key++ {
		h := mixKey(key)
		a, err := r1.Owner(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r2.Owner(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("ring assignment depends on target order: %q vs %q", a, b)
		}
		counts[a]++
	}
	for _, target := range targets {
		if counts[target] == 0 {
			t.Errorf("ring never assigned anything to %s (balance: %v)", target, counts)
		}
	}
}

// TestRingExclusionMovesOnlyOrphans: excluding one worker must not
// move any key owned by a survivor.
func TestRingExclusionMovesOnlyOrphans(t *testing.T) {
	targets := []string{"http://a", "http://b", "http://c"}
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	excluded := map[string]bool{"http://b": true}
	moved := 0
	for key := uint64(0); key < 4096; key++ {
		h := mixKey(key)
		before, _ := r.Owner(h, nil)
		after, err := r.Owner(h, excluded)
		if err != nil {
			t.Fatal(err)
		}
		if after == "http://b" {
			t.Fatal("excluded worker still owns a key")
		}
		if before != "http://b" && after != before {
			t.Fatalf("survivor-owned key moved from %s to %s", before, after)
		}
		if before == "http://b" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test never exercised an orphaned key")
	}
	if _, err := r.Owner(0, map[string]bool{
		"http://a": true, "http://b": true, "http://c": true,
	}); err == nil {
		t.Fatal("fully-excluded ring returned an owner")
	}
}

func TestRingRejectsBadTargets(t *testing.T) {
	for _, targets := range [][]string{
		nil,
		{},
		{""},
		{"http://a", "http://a"},
	} {
		if _, err := NewRing(targets); err == nil {
			t.Errorf("NewRing(%q) did not error", targets)
		}
	}
}
