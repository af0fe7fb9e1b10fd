package serve

import (
	"fmt"
	"net/http"
	"strings"

	"repro"
)

// format is a negotiated response rendering.
type format int

const (
	formatText format = iota
	formatCSV
	formatJSON
	// formatNDJSON streams one JSON object per line as results finish;
	// only the campaign endpoint negotiates it (see negotiateStream).
	formatNDJSON
	// formatBinary is the binary wire format (internal/wire): versioned,
	// length-prefixed, self-describing column frames under
	// application/vnd.sg2042.wire — the encode-free hot path.
	formatBinary
)

// negotiate picks the response format for an experiment request. The
// explicit ?format=text|csv|json|binary query parameter wins; otherwise
// the Accept header's listed types are honoured in order (text/csv,
// application/json, the wire media type or application/octet-stream,
// text/plain); otherwise text — the same bytes cmd/sg2042sim prints.
func negotiate(r *http.Request) (format, error) {
	switch q := strings.ToLower(r.URL.Query().Get("format")); q {
	case "text", "txt":
		return formatText, nil
	case "csv":
		return formatCSV, nil
	case "json":
		return formatJSON, nil
	case "binary", "bin", "wire":
		return formatBinary, nil
	case "":
	default:
		return formatText, fmt.Errorf("unknown format %q (want text, csv, json or binary)", q)
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch strings.ToLower(mediaType) {
		case "text/csv":
			return formatCSV, nil
		case "application/json":
			return formatJSON, nil
		case wireContentType, "application/octet-stream":
			return formatBinary, nil
		case "text/plain":
			return formatText, nil
		}
	}
	return formatText, nil
}

// negotiateStream is negotiate for endpoints that also stream:
// ?format=ndjson or an Accept listing application/x-ndjson (or
// application/jsonlines) selects NDJSON; everything else falls through
// to the ordinary negotiation.
func negotiateStream(r *http.Request) (format, error) {
	if strings.ToLower(r.URL.Query().Get("format")) == "ndjson" {
		return formatNDJSON, nil
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch strings.ToLower(mediaType) {
		case "application/x-ndjson", "application/jsonlines":
			return formatNDJSON, nil
		}
	}
	return negotiate(r)
}

// Content-Types of the rendered formats; the wire media type is
// aliased so the negotiation table stays a constant switch.
const (
	textContentType = "text/plain; charset=utf-8"
	csvContentType  = "text/csv; charset=utf-8"
	jsonContentType = "application/json"
	wireContentType = repro.WireContentType
)

// renderBody is the one format table from an evaluated result to
// response bytes: binary serves the wire frames, every other format the
// text rendering — the CSV form when CSV was negotiated, wrapped in the
// endpoint's JSON envelope when JSON was. Experiments, sweeps,
// campaigns and reports all answer through it; endpoints without a CSV
// form fold CSV onto text before they key and render.
func renderBody(f format, text func(csv bool) (string, error), binary func() ([]byte, error), envelope func(out string) any) ([]byte, string, error) {
	if f == formatBinary {
		body, err := binary()
		return body, wireContentType, err
	}
	out, err := text(f == formatCSV)
	if err != nil {
		return nil, "", err
	}
	switch f {
	case formatJSON:
		body, err := marshalJSONBody(envelope(out))
		return body, jsonContentType, err
	case formatCSV:
		return []byte(out), csvContentType, nil
	}
	return []byte(out), textContentType, nil
}
