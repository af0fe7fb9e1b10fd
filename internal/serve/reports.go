package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro"
)

// reportJSON is the JSON envelope for the roofline and cluster reports.
type reportJSON struct {
	Machine string `json:"machine"`
	Report  string `json:"report"`
	Output  string `json:"output"`
}

// handleRoofline serves GET /v1/roofline/{machine}: the machine's
// roofline with all 64 kernels placed on it, as cmd/sg2042sim
// -roofline prints it. ?prec=f32|f64 selects the precision (default
// f64, matching the CLI); ?format=json wraps the text in a JSON
// envelope. An unknown machine label is 404. Renderings are served from
// the response cache.
func (s *Server) handleRoofline(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p, err := repro.ParsePrecision(r.URL.Query().Get("prec"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	label, err := s.reg.Label(r.PathValue("machine"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	ent, err := s.rc.get(rooflineJob(label, p, f))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	serveRendered(w, r, ent)
}

// rooflineJob is the render-cache job for one roofline report — the
// key and fill handleRoofline and the prewarm corpus share. label is
// the registry's canonical spelling, so every spelling of one machine
// shares an entry.
func rooflineJob(label string, p repro.Precision, f format) (renderKey, renderFill) {
	f = reportFormat(f)
	return renderKey{kind: "roofline", name: label, variant: p.String(), format: f}, func() ([]byte, string, error) {
		out, err := repro.RooflineReport(label, p)
		return reportBody(f, "roofline", label, out, err)
	}
}

// clusterParams are the cluster report's query parameters, parsed and
// canonicalized; the zero query yields the CLI's defaults.
type clusterParams struct {
	network string // "ib" or "eth"
	grid    int
	prec    repro.Precision
	nodes   []int
	sockets int
	// variant is the parameters' render-key variant.
	variant string
}

// parseClusterParams reads the cluster report's query: ?net=ib|eth
// (default ib), ?grid=N (default 512), ?nodes=1,2,4 to override the
// swept node counts, ?sockets=N to derive a sockets-per-node variant of
// the preset, and ?prec=f32|f64.
func parseClusterParams(q url.Values) (clusterParams, error) {
	network, err := parseNetwork(q.Get("net"))
	if err != nil {
		return clusterParams{}, err
	}
	p, err := repro.ParsePrecision(q.Get("prec"))
	if err != nil {
		return clusterParams{}, err
	}
	grid, err := atoiDefault(q.Get("grid"), 512)
	if err != nil || grid <= 0 {
		return clusterParams{}, fmt.Errorf("bad grid %q (want a positive integer)", q.Get("grid"))
	}
	nodes, err := parseNodes(q.Get("nodes"))
	if err != nil {
		return clusterParams{}, err
	}
	sockets, err := atoiDefault(q.Get("sockets"), 0)
	if err != nil || sockets < 0 {
		return clusterParams{}, fmt.Errorf("bad sockets %q (want a non-negative integer)", q.Get("sockets"))
	}
	return clusterParams{network: network, grid: grid, prec: p, nodes: nodes, sockets: sockets,
		variant: fmt.Sprintf("net=%s grid=%d prec=%v nodes=%v sockets=%d", network, grid, p, nodes, sockets)}, nil
}

// handleCluster serves GET /v1/cluster/{machine}: the MPI scaling model
// of the paper's further-work section, with the query parameters of
// parseClusterParams. An unknown machine label is 404; every validation
// failure (bad socket count included) is 400.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cp, err := parseClusterParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	label, err := s.reg.Label(r.PathValue("machine"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	ent, err := s.rc.get(clusterJob(label, cp, f))
	if err != nil {
		// The label resolved; what remains is a derivation the machine
		// cannot support (an over-size socket count, say).
		writeError(w, http.StatusBadRequest, err)
		return
	}
	serveRendered(w, r, ent)
}

// clusterJob is the render-cache job for one cluster report — the key
// and fill handleCluster and the prewarm corpus share. label is the
// registry's canonical spelling, as for rooflineJob.
func clusterJob(label string, cp clusterParams, f format) (renderKey, renderFill) {
	f = reportFormat(f)
	return renderKey{kind: "cluster", name: label, variant: cp.variant, format: f}, func() ([]byte, string, error) {
		out, err := repro.ClusterScalingReport(label, cp.network, cp.grid, cp.prec, cp.nodes, cp.sockets)
		return reportBody(f, "cluster", label, out, err)
	}
}

// reportFormat folds CSV onto text for the report endpoints, which have
// no CSV form — one cache entry, not two, for the same bytes.
func reportFormat(f format) format {
	if f == formatCSV {
		return formatText
	}
	return f
}

// reportBody serves a rendered report (or its rendering error) as text,
// as its JSON envelope, or as a one-row binary wire frame.
func reportBody(f format, kind, label, out string, err error) ([]byte, string, error) {
	if err != nil {
		return nil, "", err
	}
	return renderBody(f,
		func(bool) (string, error) { return out, nil },
		func() ([]byte, error) { return repro.ReportWire(label, kind, out) },
		func(out string) any { return reportJSON{Machine: label, Report: kind, Output: out} })
}

// parseNetwork validates the ?net parameter against the interconnects
// ClusterScalingReport accepts and canonicalizes it to "ib" or "eth",
// so every spelling of one interconnect shares a render-cache entry;
// empty means the CLI's default ib. Validating here keeps the
// 400-vs-404 decision independent of the library's error wording.
func parseNetwork(s string) (string, error) {
	switch strings.ToLower(s) {
	case "", "ib", "infiniband":
		return "ib", nil
	case "eth", "ethernet":
		return "eth", nil
	}
	return "", fmt.Errorf("unknown network %q (want ib or eth)", s)
}

// parseNodes parses a comma-separated node-count list; empty keeps the
// report's default sweep.
func parseNodes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	nodes := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node count %q (want positive integers, e.g. nodes=1,2,4)", part)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// atoiDefault parses s, or returns def when s is empty.
func atoiDefault(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
