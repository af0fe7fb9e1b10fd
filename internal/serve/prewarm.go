package serve

// Boot-time corpus precompute. The servable corpus of GET renderings is
// finite and known up front — every experiment (and "all") in every
// negotiated format, plus the roofline and cluster reports for every
// registered machine at their default parameters — so a daemon that is
// willing to pay at boot can render all of it before taking traffic and
// serve its entire steady-state GET load from the render cache,
// bit-identical to live rendering (the determinism contract makes the
// prewarmed bytes indistinguishable from lazily rendered ones).
// cmd/sg2042d triggers this behind -prewarm; /healthz answers 503 until
// the pass completes, and the sg2042d_prewarm_* metrics record what it
// did.

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// prewarmCorpus enumerates the full GET corpus in a fixed order:
// experiments (the paper's order, then "all") across text, CSV, JSON
// and binary; then per registry machine the roofline report at both
// precisions and the cluster report at its default parameters, each in
// text, JSON and binary. Every entry comes from the job constructor its
// handler calls, so a prewarmed entry is a guaranteed hit for the
// matching request.
func (s *Server) prewarmCorpus() []renderJob {
	var jobs []renderJob
	add := func(key renderKey, fill renderFill) { jobs = append(jobs, renderJob{key, fill}) }
	for _, name := range append(append([]string(nil), repro.ExperimentNames...), "all") {
		for _, f := range []format{formatText, formatCSV, formatJSON, formatBinary} {
			add(s.experimentJob(name, f))
		}
	}
	repFormats := []format{formatText, formatJSON, formatBinary}
	defaults, _ := parseClusterParams(nil)
	for _, label := range s.reg.Labels() {
		for _, p := range []repro.Precision{repro.F64, repro.F32} {
			for _, f := range repFormats {
				add(rooflineJob(label, p, f))
			}
		}
		for _, f := range repFormats {
			add(clusterJob(label, defaults, f))
		}
	}
	return jobs
}

// Prewarm renders the full GET corpus into the render cache, then marks
// the server ready (flipping /healthz from 503 to 200 when
// Options.Prewarm gated it). It returns the number of renderings
// filled. Individual fill failures don't abort the pass — the entry
// stays cold and re-renders on its first live request — but they are
// counted in sg2042d_prewarm_errors_total and reported in the returned
// error. Cancelling ctx abandons the pass without marking ready: a
// shutting-down daemon should not start advertising readiness.
func (s *Server) Prewarm(ctx context.Context) (int, error) {
	start := time.Now()
	warmed, failed := 0, 0
	var firstErr error
	for _, e := range s.prewarmCorpus() {
		if err := ctx.Err(); err != nil {
			s.met.setPrewarm(warmed, failed, time.Since(start))
			return warmed, err
		}
		if _, err := s.rc.get(e.key, e.fill); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("prewarm %s/%s: %w", e.key.kind, e.key.name, err)
			}
			continue
		}
		warmed++
	}
	s.met.setPrewarm(warmed, failed, time.Since(start))
	s.ready.Store(true)
	if firstErr != nil {
		return warmed, fmt.Errorf("%d of %d prewarm fills failed, first: %w", failed, warmed+failed, firstErr)
	}
	return warmed, nil
}
