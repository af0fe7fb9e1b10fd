package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleTable() Table {
	return Table{
		Kind:  "figure",
		Title: "Figure 1: sample",
		Columns: []Column{
			{Name: "series", Type: String, Strings: []string{"a", "b", "c"}},
			{Name: "mean", Type: Float64, Floats: []float64{1.5, math.Pi, -0.0}},
			{Name: "count", Type: Int64, Ints: []int64{1, -7, math.MaxInt64}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleTable()
	enc, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, []byte(Magic)) || enc[len(Magic)] != Version {
		t.Fatalf("frame header wrong: % x", enc[:8])
	}
	got, err := DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("one frame decoded as %d tables", len(got))
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got[0], want)
	}
}

// Encoding is canonical: encoding the decoded table reproduces the
// exact input bytes — the property the determinism contract relies on.
func TestEncodeIsCanonical(t *testing.T) {
	enc, err := Encode(sampleTable())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := Encode(got...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encoding a decoded frame changed the bytes")
	}
}

// Frames are self-delimiting, so concatenation is the multi-table form.
func TestDecodeAllConcatenation(t *testing.T) {
	a, b := sampleTable(), sampleTable()
	b.Kind, b.Title = "scaling", "Table 2"
	enc, err := Encode(a, b)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Kind != "figure" || tables[1].Kind != "scaling" {
		t.Errorf("DecodeAll = %d tables, kinds %q %q", len(tables), tables[0].Kind, tables[1].Kind)
	}
	if _, err := DecodeAll(nil); err == nil {
		t.Error("DecodeAll(nil) should fail: a response is at least one frame")
	}
}

// Encode allocates the output once: the exact-size precompute must
// match the bytes actually written.
func TestSizePrecomputeExact(t *testing.T) {
	tab := sampleTable()
	enc, err := Encode(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.size(); got != len(enc) {
		t.Errorf("size() = %d, encoded %d bytes", got, len(enc))
	}
	empty := Table{Kind: "report", Title: ""}
	enc, err = Encode(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.size(); got != len(enc) {
		t.Errorf("empty size() = %d, encoded %d bytes", got, len(enc))
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	ragged := Table{Kind: "x", Columns: []Column{
		{Name: "a", Type: String, Strings: []string{"1", "2"}},
		{Name: "b", Type: Int64, Ints: []int64{1}},
	}}
	if _, err := Encode(ragged); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Errorf("ragged columns: err = %v", err)
	}
	badType := Table{Kind: "x", Columns: []Column{{Name: "a", Type: 99}}}
	if _, err := Encode(badType); err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Errorf("unknown column type: err = %v", err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	good, err := Encode(sampleTable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAll(oneColumn(byte(String))); err != nil {
		t.Fatalf("oneColumn with a one-byte type: %v", err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": append([]byte(Magic), append([]byte{99}, good[5:]...)...),
		"truncated":   good[:len(good)/2],
		// A frame claiming absurd row/col counts must be rejected by the
		// a-priori bound, not by attempting the allocations.
		"absurd counts": append([]byte(Magic), Version,
			1, 'k', 1, 't', // kind "k", title "t"
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // nrows = 2^63-ish
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // ncols likewise
		// The version and a column type are one byte each: a multi-byte
		// varint whose value or low byte is a known tag must not pass.
		"non-minimal version 1":  append([]byte(Magic), append([]byte{0x81, 0x00}, good[5:]...)...),
		"multi-byte version 257": append([]byte(Magic), append([]byte{0x81, 0x02}, good[5:]...)...),
		"multi-byte type 257":    oneColumn(0x81, 0x02),
		"non-minimal type 1":     oneColumn(0x81, 0x00),
	}
	for name, data := range cases {
		if _, err := DecodeAll(data); err == nil {
			t.Errorf("%s: DecodeAll accepted corrupt input", name)
		}
	}
	// Every prefix of a valid frame fails cleanly (no panics, no
	// partial-success): the decoder is total.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeAll(good[:i]); err == nil {
			t.Errorf("prefix of %d bytes decoded without error", i)
		}
	}
}

// oneColumn is a one-row frame whose single string column has the
// given type bytes in place of its type tag.
func oneColumn(typ ...byte) []byte {
	frame := append([]byte(Magic), Version,
		1, 'k', 1, 't', // kind "k", title "t"
		1, 1, // one row, one column
		1, 'c') // column name "c"
	frame = append(frame, typ...)
	return append(frame, 1, 'v') // the string "v"
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{String: "string", Float64: "float64", Int64: "int64", 42: "coltype42"} {
		if got := ct.String(); got != want {
			t.Errorf("ColType(%d).String() = %q, want %q", ct, got, want)
		}
	}
}

// FuzzDecode: the decoder is total (never panics), and any input it
// accepts is in canonical form — Encode of the decoded tables is a
// byte-level fixed point. Seeds cover a valid frame, a concatenation,
// and interesting corruptions.
func FuzzDecode(f *testing.F) {
	one, err := Encode(sampleTable())
	if err != nil {
		f.Fatal(err)
	}
	two, err := Encode(sampleTable(), Table{Kind: "report", Title: "r",
		Columns: []Column{{Name: "output", Type: String, Strings: []string{"text"}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	f.Add(two)
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version))
	f.Add(one[:len(one)-3])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		tables, err := DecodeAll(data)
		if err != nil {
			return
		}
		enc, err := Encode(tables...)
		if err != nil {
			t.Fatalf("decoded tables fail to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input is not canonical:\nin  % x\nout % x", data, enc)
		}
		// Byte equality above is the fixed-point property; comparing the
		// decoded tables with DeepEqual would falsely fail on NaN column
		// values (NaN != NaN), so re-decode and check shape only.
		tables2, err := DecodeAll(enc)
		if err != nil {
			t.Fatalf("re-encoded bytes fail to decode: %v", err)
		}
		if len(tables2) != len(tables) {
			t.Fatalf("re-decode found %d tables, want %d", len(tables2), len(tables))
		}
	})
}
