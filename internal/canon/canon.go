// Package canon holds the cursor and append helpers behind the
// repository's binary encodings: the wire frames of binary responses
// (internal/wire), the fabric's point frames and the suite-cache
// snapshot. Integers are minimal uvarints (signed
// ones zigzag-encoded first, as encoding/binary's AppendVarint does),
// strings a uvarint byte length then the bytes, floats and fixed
// 64-bit words 8 bytes little-endian, so a float decodes to exactly
// the bit pattern that was encoded.
//
// A Reader accepts only what these helpers produce: a non-minimal
// varint is an error, so a body that decodes re-encodes to itself.
package canon

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendString appends s as a uvarint byte length and the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat appends v's IEEE-754 bit pattern, little-endian.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// Reader is a cursor over an encoded body with a sticky error: once a
// read fails, every later read returns a zero value, so a decoder
// checks Err once at the end. Every length and count is checked
// against the bytes left before anything is sized from it.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over body.
func NewReader(body []byte) Reader {
	return Reader{buf: body}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records a failure unless one is already recorded, and drops the
// bytes left so every later read fails too.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.buf = nil
}

// Magic consumes the body's opening bytes and fails unless they are m.
func (r *Reader) Magic(m string) {
	if len(r.buf) < len(m) || string(r.buf[:len(m)]) != m {
		r.Fail("does not start with magic %q", m)
		return
	}
	r.buf = r.buf[len(m):]
}

// Uvarint reads a minimal uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("truncated or over-long uvarint")
		return 0
	}
	if n > 1 && r.buf[n-1] == 0 {
		// A minimal uvarint never ends in a zero byte.
		r.Fail("non-minimal uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag-encoded minimal varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a uvarint that must fit in an int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads an element count and refuses one that cannot fit in the
// bytes left at size bytes per element.
func (r *Reader) Count(size int) int {
	v := r.Uvarint()
	if v > uint64(len(r.buf)/size) {
		r.Fail("count %d exceeds the %d bytes left", v, len(r.buf))
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count(1)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Uint64 reads a fixed 8-byte little-endian word.
func (r *Reader) Uint64() uint64 {
	if len(r.buf) < 8 {
		r.Fail("truncated in a 64-bit word")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Float reads an IEEE-754 bit pattern.
func (r *Reader) Float() float64 {
	return math.Float64frombits(r.Uint64())
}

// End fails on trailing bytes and returns the first failure.
func (r *Reader) End() error {
	if len(r.buf) != 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}
