package serve

// Rendered-response cache. The engine is deterministic — the
// determinism contract (docs/ARCHITECTURE.md) guarantees that one
// (experiment|report|sweep, machine, format) tuple always renders to
// the same bytes — so the server can cache entire response bodies, not
// just the suite evaluations behind them. Each entry stores the
// rendered body, a precomputed strong ETag over it, and (for bodies
// worth compressing) a gzip form built with a pooled writer the first
// time a request accepts it — most cold campaign bodies are never read
// again, let alone by a gzip client, so compressing at fill time would
// be work for nobody.
// Repeat GETs cost a map lookup and one write; conditional requests
// (If-None-Match) cost a 304 with no body at all. Entries are filled
// once per key, so concurrent first requests coalesce exactly like the
// engine's suite cache. docs/PERFORMANCE.md documents
// the semantics.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/memo"
)

// renderKey identifies one cacheable rendering.
type renderKey struct {
	// kind is the endpoint family: "experiment", "roofline", "cluster"
	// or "sweep".
	kind string
	// name is the experiment name or machine label, verbatim (it can
	// appear in the rendered body, so no canonicalization here beyond
	// what the handler itself does).
	name string
	// variant canonicalizes the remaining parameters (precision,
	// network, grid, node list, sweep axis/values/threads/placement and
	// the base machine's fingerprint).
	variant string
	format  format
}

// renderEntry is one cached rendering. Its identity form is immutable;
// the gzip form is filled once, on demand, by gzip.
type renderEntry struct {
	body  []byte
	ctype string
	etag  string // strong ETag over body
	// gzipped/etagGzip are set by gzip when compression pays; the gzip
	// representation gets its own ETag ("...-gzip"), nginx-style, so
	// each representation revalidates against the exact bytes it serves.
	gzipOnce sync.Once
	gzipped  []byte
	etagGzip string
}

// maxRenderEntries bounds the cache. The fixed key space (experiments
// x formats, reports per machine and parameter set) is far below it;
// what it defends against is the client-controlled key spaces (sweep
// specs, cluster grid/node parameters) — an inline custom machine spec
// makes every tweaked request a distinct key, and without a bound a
// long-running daemon would retain every rendered body it ever
// produced. At the cap an arbitrary entry is evicted for each new one,
// so caching and request coalescing keep working under churn (an
// evicted hot entry just re-renders on its next request) while memory
// stays bounded.
const maxRenderEntries = 1024

// renderCache memoizes rendered responses for one Server through an
// internal/memo Map: concurrent first requests share one render, fill
// errors go to every waiter and are not kept, and the counters count
// successful responses only (served from cache vs rendered).
type renderCache struct {
	memo.Map[renderKey, *renderEntry]
}

func newRenderCache() *renderCache {
	return &renderCache{memo.Map[renderKey, *renderEntry]{Max: maxRenderEntries}}
}

// get returns the cached rendering for k, rendering it via fill on the
// first request.
func (c *renderCache) get(k renderKey, fill func() (body []byte, ctype string, err error)) (*renderEntry, error) {
	ent, _, err := c.Get(k, func() (*renderEntry, error) {
		body, ctype, err := fill()
		if err != nil {
			return nil, err
		}
		return newRenderEntry(body, ctype), nil
	})
	return ent, err
}

// gzipMinSize is the smallest body worth compressing: below this the
// gzip header/trailer overhead eats the gain and tiny responses are
// cheap to send anyway.
const gzipMinSize = 512

// gzipPool recycles gzip writers across cache fills — each Reset
// reuses the writer's internal deflate state instead of reallocating
// its ~1.4MB of window buffers.
var gzipPool = sync.Pool{
	New: func() any {
		w, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return w
	},
}

func newRenderEntry(body []byte, ctype string) *renderEntry {
	sum := sha256.Sum256(body)
	return &renderEntry{
		body:  body,
		ctype: ctype,
		etag:  `"` + hex.EncodeToString(sum[:16]) + `"`,
	}
}

// gzip returns the entry's gzip representation and its ETag, or nil
// when the body is too small or does not shrink. The first call
// compresses; concurrent first callers wait for that one compression.
func (e *renderEntry) gzip() ([]byte, string) {
	e.gzipOnce.Do(func() {
		if len(e.body) < gzipMinSize {
			return
		}
		var buf bytes.Buffer
		zw := gzipPool.Get().(*gzip.Writer)
		zw.Reset(&buf)
		zw.Write(e.body)
		if err := zw.Close(); err == nil && buf.Len() < len(e.body) {
			e.gzipped = buf.Bytes()
			e.etagGzip = strings.TrimSuffix(e.etag, `"`) + `-gzip"`
		}
		gzipPool.Put(zw)
	})
	return e.gzipped, e.etagGzip
}

// serveRendered writes a cached entry: a 304 when the client already
// holds the representation, the stored gzip bytes when the client
// accepts them, the identity body otherwise.
func serveRendered(w http.ResponseWriter, r *http.Request, ent *renderEntry) {
	h := w.Header()
	// These responses are negotiated from request headers (the body
	// format from Accept, the encoding from Accept-Encoding), and the
	// ETag makes them attractive to downstream caches — Vary tells
	// those caches which headers select the representation.
	h.Add("Vary", "Accept")
	h.Add("Vary", "Accept-Encoding")
	body, etag, enc := ent.body, ent.etag, ""
	if acceptsGzip(r) {
		if gz, gzTag := ent.gzip(); gz != nil {
			body, etag, enc = gz, gzTag, "gzip"
		}
	}
	h.Set("ETag", etag)
	// RFC 9110 defines the 304 answer to If-None-Match for GET/HEAD
	// only; on other methods (the sweep POST) the header is ignored
	// and the full body served — the ETag still lets clients detect
	// an unchanged result.
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", ent.ctype)
	if enc != "" {
		h.Set("Content-Encoding", enc)
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// etagMatches implements If-None-Match for a strong ETag: a list of
// entity tags (or "*"), compared weakly — a W/ prefix on the client's
// copy still matches, as RFC 9110 prescribes for If-None-Match.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || c == etag || strings.TrimPrefix(c, "W/") == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request's Accept-Encoding admits
// gzip (an explicit q=0 opts out).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
			continue
		}
		if hasQ {
			q = strings.TrimPrefix(strings.TrimSpace(q), "q=")
			if v, err := strconv.ParseFloat(q, 64); err == nil && v == 0 {
				return false
			}
		}
		return true
	}
	return false
}
