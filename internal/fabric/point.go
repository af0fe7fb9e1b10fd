package fabric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro"
	"repro/internal/kernels"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
)

// The point codec: one evaluated CampaignPoint per frame, in one fixed
// layout. Integers are minimal uvarints, strings a uvarint byte length
// then the bytes, floats the 8-byte little-endian IEEE-754 bit pattern
// (so decode(encode(p)) is bit-identical to p — the property the
// distributed determinism contract stands on):
//
//	pointMagic ("SGPF" and version byte 1)
//	index, base, machine, threads, placement, prec, cores
//	total seconds, mean ratio
//	axis count, then one float per axis value
//	class count (at least 1), then per class, in strictly ascending
//	class order: class, seconds, ratio N, ratio mean, min, max
//
// The frame ends with the last class's Ratio.Max. The decoder accepts
// exactly the bytes appendPoint produces: non-minimal uvarints,
// unordered or repeated classes and trailing bytes are errors, so a
// frame that decodes re-encodes to itself and replicas that agree on a
// point agree on its frame, byte for byte.
//
// On the stream each frame is prefixed with its uvarint byte length,
// so the coordinator can decode points incrementally as the worker
// flushes them, and a mid-stream kill surfaces as a truncated frame
// rather than a hang.

// pointMagic opens every point frame: four magic bytes, then the
// layout version.
const pointMagic = "SGPF\x01"

// minCellSize is the smallest encoding of one class cell: two one-byte
// uvarints and four floats.
const minCellSize = 2 + 4*8

// maxFrameSize bounds one frame on the read side. A campaign point is
// a few hundred bytes; a declared length beyond this is a corrupt or
// hostile stream, refused before allocation.
const maxFrameSize = 1 << 20

// appendPoint appends p's frame to dst. Its integer fields are never
// negative (spec validation and grid expansion see to that); one that
// were would encode as a uvarint beyond math.MaxInt, which decodePoint
// rejects.
func appendPoint(dst []byte, p repro.CampaignPoint) ([]byte, error) {
	if len(p.ByClass) == 0 {
		return dst, fmt.Errorf("fabric: point %d has no class cells", p.Index)
	}
	var classBuf [8]kernels.Class
	classes := classBuf[:0]
	for c := range p.ByClass {
		classes = append(classes, c)
	}
	slices.Sort(classes)

	dst = append(dst, pointMagic...)
	dst = binary.AppendUvarint(dst, uint64(p.Index))
	dst = appendString(dst, p.Base)
	dst = appendString(dst, p.Machine)
	for _, v := range [...]int{p.Threads, int(p.Placement), int(p.Prec), p.Cores} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = appendFloat(dst, p.TotalSeconds)
	dst = appendFloat(dst, p.MeanRatio)
	dst = binary.AppendUvarint(dst, uint64(len(p.Values)))
	for _, v := range p.Values {
		dst = appendFloat(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(classes)))
	for _, c := range classes {
		cell := p.ByClass[c]
		dst = binary.AppendUvarint(dst, uint64(c))
		dst = appendFloat(dst, cell.Seconds)
		dst = binary.AppendUvarint(dst, uint64(cell.Ratio.N))
		dst = appendFloat(dst, cell.Ratio.Mean)
		dst = appendFloat(dst, cell.Ratio.Min)
		dst = appendFloat(dst, cell.Ratio.Max)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// decodePoint rebuilds a CampaignPoint from one frame body, rejecting
// any frame appendPoint would not produce, so a corrupt stream
// surfaces as an error, never as a silently-wrong point.
func decodePoint(frame []byte) (repro.CampaignPoint, error) {
	var p repro.CampaignPoint
	if len(frame) < len(pointMagic) || string(frame[:len(pointMagic)]) != pointMagic {
		return p, fmt.Errorf("fabric: frame does not start with point magic %q", pointMagic)
	}
	r := frameReader{buf: frame[len(pointMagic):]}
	p.Index = r.int()
	p.Base = r.string()
	p.Machine = r.string()
	p.Threads = r.int()
	p.Placement = placement.Policy(r.int())
	p.Prec = prec.Precision(r.int())
	p.Cores = r.int()
	p.TotalSeconds = r.float()
	p.MeanRatio = r.float()
	if n := r.count(8); n > 0 {
		p.Values = make([]float64, n)
		for i := range p.Values {
			p.Values[i] = r.float()
		}
	}
	n := r.count(minCellSize)
	if n == 0 {
		r.fail("point frame has no class cells")
	}
	p.ByClass = make(map[kernels.Class]repro.CampaignCell, n)
	prev := kernels.Class(-1)
	for i := 0; i < n && r.err == nil; i++ {
		c := kernels.Class(r.int())
		if c == prev {
			r.fail("class %d repeated in point frame", c)
		} else if c < prev {
			r.fail("class %d out of order after class %d in point frame", c, prev)
		}
		// Operands evaluate left to right: the cell's fields in layout order.
		p.ByClass[c] = repro.CampaignCell{
			Seconds: r.float(),
			Ratio:   stats.Summary{N: r.int(), Mean: r.float(), Min: r.float(), Max: r.float()},
		}
		prev = c
	}
	if len(r.buf) != 0 {
		r.fail("%d trailing bytes in point frame", len(r.buf))
	}
	if r.err != nil {
		return repro.CampaignPoint{}, r.err
	}
	return p, nil
}

// frameReader is a cursor over a frame body with a sticky error: once
// a read fails, every later read returns a zero value, so decodePoint
// checks once at the end. Every length and count is checked against
// the bytes left before anything is sized from it.
type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fabric: "+format, args...)
	}
	r.buf = nil
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated or over-long uvarint in point frame")
		return 0
	}
	if n > 1 && r.buf[n-1] == 0 {
		// A minimal uvarint never ends in a zero byte.
		r.fail("non-minimal uvarint in point frame")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *frameReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("integer %d out of range in point frame", v)
		return 0
	}
	return int(v)
}

// count reads an element count and refuses one that cannot fit in the
// bytes left at size bytes per element.
func (r *frameReader) count(size int) int {
	v := r.uvarint()
	if v > uint64(len(r.buf)/size) {
		r.fail("count %d exceeds the %d bytes left in point frame", v, len(r.buf))
		return 0
	}
	return int(v)
}

func (r *frameReader) string() string {
	n := r.count(1)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *frameReader) float() float64 {
	if len(r.buf) < 8 {
		r.fail("point frame truncated in a float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// writeFrame writes one length-prefixed frame as two writes, the
// length prefix and then the body.
func writeFrame(w io.Writer, frame []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(frame)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// readRawFrame reads one length-prefixed frame body without decoding
// it. It returns io.EOF exactly at a clean stream end; a length prefix
// followed by a short body is a truncation error, not EOF. The replica
// cross-check compares these raw bytes — two workers that agree on a
// point agree on its frame, byte for byte, because the encoding is
// canonical.
func readRawFrame(br *bufio.Reader) ([]byte, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("fabric: reading frame length: %w", err)
	}
	if size == 0 || size > maxFrameSize {
		return nil, fmt.Errorf("fabric: frame length %d out of range (max %d)", size, maxFrameSize)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("fabric: frame truncated: %w", err)
	}
	return buf, nil
}
