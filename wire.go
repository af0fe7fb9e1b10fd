package repro

import (
	"repro/internal/report"
	"repro/internal/wire"
)

// The binary wire format — the encode-free serving representation
// beside text, CSV and JSON. A response is one or more self-describing
// column-table frames (versioned header, length-prefixed fields; layout
// in docs/PERFORMANCE.md). Encoding is canonical: one result has
// exactly one byte representation, so binary bodies fall under the same
// determinism contract as text — serial, parallel, cached and
// prewarmed serving produce identical bytes. EncodeWire/DecodeWire are
// the round-trip helpers clients and tests use to verify byte-exact
// decoding.

// WireTable is one decoded binary frame: a titled, kind-tagged set of
// typed columns.
type WireTable = wire.Table

// WireColumn is one typed column of a WireTable.
type WireColumn = wire.Column

// Wire column types.
const (
	WireString  = wire.String
	WireFloat64 = wire.Float64
	WireInt64   = wire.Int64
)

// WireContentType is the media type binary responses are served under
// (?format=binary or Accept: application/vnd.sg2042.wire).
const WireContentType = wire.ContentType

// WireVersion is the current frame version byte.
const WireVersion = wire.Version

// EncodeWire encodes tables as concatenated binary frames — the exact
// bytes GET /v1/experiments/{name}?format=binary serves.
func EncodeWire(tables ...WireTable) ([]byte, error) { return wire.Encode(tables...) }

// DecodeWire decodes a concatenation of binary frames. It is total:
// corrupt input yields an error, never a panic, and a successful decode
// re-encodes (EncodeWire) to byte-identical frames.
func DecodeWire(data []byte) ([]WireTable, error) { return wire.DecodeAll(data) }

// RunBinary regenerates one experiment by name and encodes it as binary
// wire frames; "all" concatenates every experiment's frame in the
// paper's order. Evaluation fans out over the engine's worker pool and
// memoizes in the same config-keyed cache text and CSV requests use, so
// the bytes are identical however the engine is driven.
func (e *Engine) RunBinary(name string) ([]byte, error) {
	name = canonExperiment(name)
	names := []string{name}
	if name == "all" {
		names = ExperimentNames
	}
	tables, err := renderEach(e.st, names, e.opts.workers(), renderTable)
	if err != nil {
		return nil, err
	}
	return wire.Encode(tables...)
}

// SweepBinary runs a what-if sweep and encodes its figure as one binary
// frame — the bytes POST /v1/sweep?format=binary serves.
func (e *Engine) SweepBinary(spec SweepSpec) ([]byte, error) {
	fig, err := e.Sweep(spec)
	if err != nil {
		return nil, err
	}
	return wire.Encode(renderTable(fig))
}

// CampaignBinary runs a campaign and encodes its result as one binary
// frame — the bytes POST /v1/campaign?format=binary serves.
func (e *Engine) CampaignBinary(spec CampaignSpec) ([]byte, error) {
	res, err := e.Campaign(spec)
	if err != nil {
		return nil, err
	}
	return CampaignResultWire(res)
}

// CampaignResultWire encodes an already-evaluated campaign as one
// binary frame — the bytes CampaignBinary produces. The distributed
// coordinator uses it to serve ?format=binary from an assembled result.
func CampaignResultWire(res CampaignResult) ([]byte, error) {
	return wire.Encode(renderTable(res))
}

// ReportWire wraps a rendered report (roofline, cluster) as a one-row
// binary frame, the binary twin of the JSON report envelope.
func ReportWire(machine, kind, output string) ([]byte, error) {
	return wire.Encode(report.ReportTable(machine, kind, output))
}
