package fabric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro"
	"repro/internal/canon"
	"repro/internal/kernels"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
)

// The point codec: one evaluated CampaignPoint per frame, in one fixed
// layout, in internal/canon's primitives. Integers are minimal
// uvarints, strings a uvarint byte length then the bytes, floats the
// 8-byte little-endian IEEE-754 bit pattern (so decode(encode(p)) is
// bit-identical to p — the property the distributed determinism
// contract stands on):
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
	dst = canon.AppendString(dst, p.Base)
	dst = canon.AppendString(dst, p.Machine)
	for _, v := range [...]int{p.Threads, int(p.Placement), int(p.Prec), p.Cores} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = canon.AppendFloat(dst, p.TotalSeconds)
	dst = canon.AppendFloat(dst, p.MeanRatio)
	dst = binary.AppendUvarint(dst, uint64(len(p.Values)))
	for _, v := range p.Values {
		dst = canon.AppendFloat(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(classes)))
	for _, c := range classes {
		cell := p.ByClass[c]
		dst = binary.AppendUvarint(dst, uint64(c))
		dst = canon.AppendFloat(dst, cell.Seconds)
		dst = binary.AppendUvarint(dst, uint64(cell.Ratio.N))
		dst = canon.AppendFloat(dst, cell.Ratio.Mean)
		dst = canon.AppendFloat(dst, cell.Ratio.Min)
		dst = canon.AppendFloat(dst, cell.Ratio.Max)
	}
	return dst, nil
}

// decodePoint rebuilds a CampaignPoint from one frame body, rejecting
// any frame appendPoint would not produce, so a corrupt stream
// surfaces as an error, never as a silently-wrong point.
func decodePoint(frame []byte) (repro.CampaignPoint, error) {
	var p repro.CampaignPoint
	r := canon.NewReader(frame)
	r.Magic(pointMagic)
	p.Index = r.Int()
	p.Base = r.Str()
	p.Machine = r.Str()
	p.Threads = r.Int()
	p.Placement = placement.Policy(r.Int())
	p.Prec = prec.Precision(r.Int())
	p.Cores = r.Int()
	p.TotalSeconds = r.Float()
	p.MeanRatio = r.Float()
	if n := r.Count(8); n > 0 {
		p.Values = make([]float64, n)
		for i := range p.Values {
			p.Values[i] = r.Float()
		}
	}
	n := r.Count(minCellSize)
	if n == 0 {
		r.Fail("no class cells")
	}
	p.ByClass = make(map[kernels.Class]repro.CampaignCell, n)
	prev := kernels.Class(-1)
	for i := 0; i < n && r.Err() == nil; i++ {
		c := kernels.Class(r.Int())
		if c == prev {
			r.Fail("class %d repeated", c)
		} else if c < prev {
			r.Fail("class %d out of order after class %d", c, prev)
		}
		// Operands evaluate left to right: the cell's fields in layout order.
		p.ByClass[c] = repro.CampaignCell{
			Seconds: r.Float(),
			Ratio:   stats.Summary{N: r.Int(), Mean: r.Float(), Min: r.Float(), Max: r.Float()},
		}
		prev = c
	}
	if err := r.End(); err != nil {
		return repro.CampaignPoint{}, fmt.Errorf("fabric: point frame: %w", err)
	}
	return p, nil
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
