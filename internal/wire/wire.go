// Package wire implements the study's binary wire format — the
// encode-free serving representation beside text, CSV, JSON and NDJSON.
// A frame is a self-describing column-oriented table: a four-byte magic
// and a version byte, then length-prefixed header strings, then the
// column schema (name + type per column) interleaved with the column
// data. Every variable-length field carries its own length prefix, so a
// decoder never scans for delimiters, and every value is written in a
// fixed canonical form, so encoding is deterministic: one Table has
// exactly one byte representation, and Encode∘DecodeAll is the identity
// on encoded bytes (the determinism contract of docs/ARCHITECTURE.md
// extends to binary responses). Frames are read through
// internal/canon's Reader, which accepts only that canonical form.
//
// Frame layout (integers little-endian, lengths unsigned varints):
//
//	offset  field
//	0       magic "SG42" (4 bytes)
//	4       version (1 byte, currently 0x01)
//	5       kind   — uvarint length + UTF-8 bytes ("figure", "scaling", ...)
//	        title  — uvarint length + UTF-8 bytes
//	        nrows  — uvarint
//	        ncols  — uvarint
//	        ncols × column:
//	          name — uvarint length + UTF-8 bytes
//	          type — 1 byte (1=string, 2=float64, 3=int64)
//	          nrows × value:
//	            string  — uvarint length + UTF-8 bytes
//	            float64 — 8 bytes, IEEE-754 bit pattern, little-endian
//	            int64   — 8 bytes, two's complement, little-endian
//
// Multiple frames concatenate: each frame is self-delimiting, so "all
// experiments" is simply the per-experiment frames in the paper's
// order. Version rules: the version byte bumps on any layout change; a
// decoder rejects versions it does not know, and within one version the
// layout never changes shape (new column types extend the type byte).
// docs/PERFORMANCE.md documents the format for clients.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/canon"
)

// Magic opens every frame.
const Magic = "SG42"

// Version is the current frame version.
const Version = 1

// ContentType is the media type binary responses are served under.
const ContentType = "application/vnd.sg2042.wire"

// ColType is the type tag of one column.
type ColType uint8

// Column types. The tags are wire-stable: new types append, existing
// values never renumber.
const (
	String  ColType = 1
	Float64 ColType = 2
	Int64   ColType = 3
)

func (t ColType) String() string {
	switch t {
	case String:
		return "string"
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	}
	return fmt.Sprintf("coltype%d", uint8(t))
}

// Column is one typed column: exactly one of the value slices is used,
// selected by Type, and every column of a table holds the same number
// of values.
type Column struct {
	Name string
	Type ColType
	// Strings holds the values of a String column.
	Strings []string
	// Floats holds the values of a Float64 column.
	Floats []float64
	// Ints holds the values of an Int64 column.
	Ints []int64
}

// rows returns the column's value count.
func (c *Column) rows() int {
	switch c.Type {
	case String:
		return len(c.Strings)
	case Float64:
		return len(c.Floats)
	default:
		return len(c.Ints)
	}
}

// Table is one decoded (or to-be-encoded) frame.
type Table struct {
	// Kind names the result family ("figure", "scaling", "kernels",
	// "table4", "sweep", "campaign", "report").
	Kind  string
	Title string
	// Columns hold the data column-major; all columns are the same
	// length.
	Columns []Column
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].rows()
}

// validate checks a table is encodable: known column types and equal
// column lengths.
func (t *Table) validate() error {
	rows := t.NumRows()
	for i := range t.Columns {
		c := &t.Columns[i]
		switch c.Type {
		case String, Float64, Int64:
		default:
			return fmt.Errorf("wire: column %q has unknown type %d", c.Name, c.Type)
		}
		if c.rows() != rows {
			return fmt.Errorf("wire: column %q has %d rows, want %d", c.Name, c.rows(), rows)
		}
	}
	return nil
}

// size returns the exact encoded frame size, so Append allocates at
// most once.
func (t *Table) size() int {
	n := len(Magic) + 1 // magic + version
	n += uvarintLen(uint64(len(t.Kind))) + len(t.Kind)
	n += uvarintLen(uint64(len(t.Title))) + len(t.Title)
	rows := t.NumRows()
	n += uvarintLen(uint64(rows))
	n += uvarintLen(uint64(len(t.Columns)))
	for i := range t.Columns {
		c := &t.Columns[i]
		n += uvarintLen(uint64(len(c.Name))) + len(c.Name) + 1
		switch c.Type {
		case String:
			for _, s := range c.Strings {
				n += uvarintLen(uint64(len(s))) + len(s)
			}
		default:
			n += 8 * rows
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Append encodes the table as one frame appended to dst and returns the
// extended slice. The encoding is canonical: minimal varints, fixed
// 8-byte numerics — one table, one byte representation.
func Append(dst []byte, t *Table) ([]byte, error) {
	if err := t.validate(); err != nil {
		return dst, err
	}
	need := t.size()
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	dst = canon.AppendString(dst, t.Kind)
	dst = canon.AppendString(dst, t.Title)
	rows := t.NumRows()
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(len(t.Columns)))
	for i := range t.Columns {
		c := &t.Columns[i]
		dst = canon.AppendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
		switch c.Type {
		case String:
			for _, s := range c.Strings {
				dst = canon.AppendString(dst, s)
			}
		case Float64:
			for _, v := range c.Floats {
				dst = canon.AppendFloat(dst, v)
			}
		case Int64:
			for _, v := range c.Ints {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
		}
	}
	return dst, nil
}

// Encode encodes the tables as concatenated frames in one allocation.
func Encode(tables ...Table) ([]byte, error) {
	total := 0
	for i := range tables {
		total += tables[i].size()
	}
	out := make([]byte, 0, total)
	var err error
	for i := range tables {
		if out, err = Append(out, &tables[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeAll decodes a concatenation of frames ("all experiments") into
// its tables. At least one frame must be present.
func DecodeAll(data []byte) ([]Table, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty input")
	}
	r := canon.NewReader(data)
	var tables []Table
	for r.Len() > 0 {
		tables = append(tables, decodeFrame(&r))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return tables, nil
}

// decodeFrame reads one frame from the front of r. A failure stays on
// r and drops the bytes left, which ends DecodeAll's loop.
func decodeFrame(r *canon.Reader) Table {
	r.Magic(Magic)
	// The version and the column types are read as uvarints and compared
	// in full: a minimal uvarint below 0x80 is the one byte Append wrote,
	// and anything longer must not truncate onto a known value.
	if v := r.Uvarint(); v != Version {
		r.Fail("unsupported version %d (decoder speaks %d)", v, Version)
	}
	t := Table{Kind: r.Str(), Title: r.Str()}
	nrows := r.Uvarint()
	// Every column header and every value costs at least one encoded
	// byte (8 for numerics, >=1 for a string length prefix): cheap
	// a-priori bounds that reject absurd counts before any slice is
	// sized from them. The division form cannot overflow.
	ncols := r.Count(1)
	switch {
	case ncols == 0 && nrows != 0:
		// NumRows derives the count from the columns, so Append always
		// writes 0 rows for a columnless table.
		r.Fail("frame declares %d rows with no columns", nrows)
	case ncols > 0 && nrows > uint64(r.Len()/ncols):
		r.Fail("frame declares %d cols x %d rows but only %d bytes remain", ncols, nrows, r.Len())
	}
	t.Columns = make([]Column, ncols)
	for i := range t.Columns {
		c := &t.Columns[i]
		c.Name = r.Str()
		typ := r.Uvarint()
		c.Type = ColType(typ)
		switch typ {
		case uint64(String):
			c.Strings = make([]string, nrows)
			for j := range c.Strings {
				c.Strings[j] = r.Str()
			}
		case uint64(Float64):
			c.Floats = make([]float64, nrows)
			for j := range c.Floats {
				c.Floats[j] = r.Float()
			}
		case uint64(Int64):
			c.Ints = make([]int64, nrows)
			for j := range c.Ints {
				c.Ints[j] = int64(r.Uint64())
			}
		default:
			r.Fail("column %q has unknown type %d", c.Name, typ)
		}
	}
	return t
}
