package serve

// Hand-rolled NDJSON point encoding. The streaming campaign surface
// emits one JSON line per grid point; encoding/json costs a
// reflection walk, an interface box per field, and map-ordered
// bookkeeping for every line. A campaign at the raised point cap emits
// thousands of lines per request, so the point line — a small, fixed
// struct — is encoded by appending straight into the stream's body,
// the slice the render cache keeps (streamCampaign): no allocation per
// line beyond the body's own growth.
//
// Byte compatibility is a hard contract, not an aspiration: the
// rendered stream is cached and replayed, diffed by the determinism
// gate, and compared across the local and fabric tiers, and the
// pre-planner binary produced encoding/json bytes. Every encoding
// decision below — the float format switch at 1e-6/1e21 with the
// exponent fixup, HTML escaping of <, >, and &, the �
// replacement for invalid UTF-8, the U+2028/U+2029 escapes — is
// replicated from encoding/json, and ndjson_test.go pins the bytes
// against json.Encoder across the corner cases.

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro"
)

// ndjsonClasses caches the paper's class order once: repro.Classes()
// returns a defensive copy per call, which would be one allocation per
// point line.
var ndjsonClasses = repro.Classes()

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, replicating
// encoding/json's escaping with EscapeHTML enabled (the Encoder
// default): ", \, controls (with the \n \r \t short forms), <, >, &,
// invalid UTF-8 as the \ufffd escape, and U+2028/U+2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control characters, plus <, >, and & under HTML
				// escaping.
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f exactly as encoding/json renders a
// float64: shortest 'f' form, switching to 'e' outside [1e-6, 1e21)
// with the exponent's leading zero trimmed. Non-finite values error
// like encoding/json does.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s",
			strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendCampaignPoint appends one NDJSON point line (newline included)
// for p — byte-identical to json.Encoder.Encode(campaignPointLine(p)),
// the encoding/json oracle the tests hold it to.
func appendCampaignPoint(b []byte, p repro.CampaignPoint) ([]byte, error) {
	var err error
	b = append(b, `{"point":`...)
	b = strconv.AppendInt(b, int64(p.Index), 10)
	b = append(b, `,"base":`...)
	b = appendJSONString(b, p.Base)
	b = append(b, `,"machine":`...)
	b = appendJSONString(b, p.Machine)
	b = append(b, `,"threads":`...)
	b = strconv.AppendInt(b, int64(p.Threads), 10)
	b = append(b, `,"placement":`...)
	b = appendJSONString(b, p.Placement.String())
	b = append(b, `,"prec":`...)
	b = appendJSONString(b, p.Prec.String())
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(p.Cores), 10)
	b = append(b, `,"total_seconds":`...)
	if b, err = appendJSONFloat(b, p.TotalSeconds); err != nil {
		return nil, err
	}
	b = append(b, `,"mean_ratio_vs_base":`...)
	if b, err = appendJSONFloat(b, p.MeanRatio); err != nil {
		return nil, err
	}
	b = append(b, `,"classes":`...)
	// campaignPointLine leaves Classes nil — rendered as null — when no
	// canonical class appears in ByClass; an open bracket is only
	// committed once the first cell matches.
	mark := len(b)
	first := true
	for _, class := range ndjsonClasses {
		cell, ok := p.ByClass[class]
		if !ok {
			continue
		}
		if first {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"class":`...)
		b = appendJSONString(b, class.String())
		b = append(b, `,"seconds":`...)
		if b, err = appendJSONFloat(b, cell.Seconds); err != nil {
			return nil, err
		}
		b = append(b, `,"ratio_vs_base":`...)
		if b, err = appendJSONFloat(b, cell.Ratio.Mean); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	if first {
		b = append(b[:mark], `null`...)
	} else {
		b = append(b, ']')
	}
	b = append(b, '}', '\n')
	return b, nil
}
