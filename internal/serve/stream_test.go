package serve

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flushRecorder is a ResponseRecorder that records what the body held
// at each Flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushedAt []string
}

func (r *flushRecorder) Flush() {
	r.flushedAt = append(r.flushedAt, r.Body.String())
	r.ResponseRecorder.Flush()
}

func serveRecorded(h http.Handler, path, body string) *flushRecorder {
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestCampaignNDJSONFlushesFirstLineOnce: through the daemon's full
// handler (metrics wrapper included), a live NDJSON stream flushes
// exactly once, mid-stream, when the body holds exactly the first
// point line; the rest leaves in transport-sized batches.
func TestCampaignNDJSONFlushesFirstLineOnce(t *testing.T) {
	rec := serveRecorded(New(Options{Parallel: 4}).Handler(), "/v1/campaign?format=ndjson", campaignBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if n := strings.Count(body, "\n"); n != 16+1 {
		t.Fatalf("%d lines, want 16 points + 1 summary", n)
	}
	first := body[:strings.IndexByte(body, '\n')+1]
	if len(rec.flushedAt) != 1 {
		t.Fatalf("%d flushes, want exactly 1 (after the first point line)", len(rec.flushedAt))
	}
	if rec.flushedAt[0] != first {
		t.Errorf("flushed with %d body bytes, want exactly line one (%d bytes)", len(rec.flushedAt[0]), len(first))
	}
}

// TestWorkerMountedInDaemonDoesNotFlush: the fabric worker never
// flushes, so through the daemon's handler its frames batch in
// net/http's buffers even when the connection's writer could flush.
func TestWorkerMountedInDaemonDoesNotFlush(t *testing.T) {
	req := `{"spec": ` + campaignBody + `, "points": [0, 1, 2, 3]}`
	rec := serveRecorded(New(Options{Worker: true}).Handler(), "/v1/fabric/points", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if rec.Body.Len() == 0 {
		t.Fatal("worker streamed no frames")
	}
	if len(rec.flushedAt) != 0 {
		t.Errorf("daemon-mounted worker flushed %d times, want 0", len(rec.flushedAt))
	}
}

// gateWriter sits between the daemon handler and a real connection: it
// lets the first write through and holds every later one until release
// is closed. A stream that does not flush its first line leaves that
// line in net/http's buffer behind the held second write.
type gateWriter struct {
	http.ResponseWriter
	release <-chan struct{}
	writes  atomic.Int32
}

func (g *gateWriter) Write(b []byte) (int, error) {
	if g.writes.Add(1) > 1 {
		<-g.release
	}
	return g.ResponseWriter.Write(b)
}

func (g *gateWriter) Flush() { http.NewResponseController(g.ResponseWriter).Flush() }

// TestCampaignNDJSONFirstLineReachesClient: on a real listener, the
// client reads the first point line while the daemon is held on its
// second write — the head of the grid arrives before the rest is even
// written. A missing flush fails on the read deadline instead of
// hanging.
func TestCampaignNDJSONFirstLineReachesClient(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	daemon := New(Options{Parallel: 4}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		daemon.ServeHTTP(&gateWriter{ResponseWriter: w, release: release}, r)
	}))
	defer ts.Close()
	defer open() // before ts.Close, which waits for the held handler

	// Response headers travel with the first body bytes, so the request
	// itself runs under the deadline too.
	type head struct {
		first string
		rest  *bufio.Reader
		err   error
	}
	heads := make(chan head, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaign?format=ndjson", "application/json",
			strings.NewReader(campaignBody))
		if err != nil {
			heads <- head{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		first, err := br.ReadString('\n')
		heads <- head{first, br, err}
	}()
	var h head
	select {
	case h = <-heads:
	case <-time.After(10 * time.Second):
		t.Fatal("first NDJSON line not delivered while the rest of the stream was held: not flushed")
	}
	if h.err != nil {
		t.Fatal(h.err)
	}
	first := h.first
	if !strings.HasPrefix(first, `{"point":0,`) {
		t.Fatalf("first line %q is not point 0", first)
	}
	open()
	var rest bytes.Buffer
	if _, err := rest.ReadFrom(h.rest); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(first+rest.String(), "\n"); n != 16+1 {
		t.Errorf("%d lines after release, want 16 points + 1 summary", n)
	}
}

// coldCampaignBody is a 256-point grid (2 bases x 16 clocks x 2 threads
// x 2 placements x 2 precisions) whose clock values start at clock0 and
// step by 1e-4 GHz, so grids from distinct clock0 values share no
// derived machine.
func coldCampaignBody(clock0 float64) string {
	clocks := make([]string, 16)
	for i := range clocks {
		clocks[i] = strconv.FormatFloat(clock0+float64(i)*1e-4, 'f', -1, 64)
	}
	return `{"machines": ["SG2042", "SG2044"],
		"axes": [{"axis": "clock", "values": [` + strings.Join(clocks, ", ") + `]}],
		"threads": [0, 32], "placements": ["block", "cyclic"], "precisions": ["f64", "f32"]}`
}

// writeLog is a ResponseWriter that keeps every Write separately.
type writeLog struct {
	header http.Header
	writes [][]byte
}

func (l *writeLog) Header() http.Header { return l.header }
func (l *writeLog) WriteHeader(int)     {}
func (l *writeLog) Write(b []byte) (int, error) {
	l.writes = append(l.writes, bytes.Clone(b))
	return len(b), nil
}

// TestCampaignNDJSONBatchedWrites: a cold 256-point stream reaches the
// ResponseWriter as the first point line alone, then writes of at least
// 32 KiB, all but the last; the render cache keeps exactly the streamed
// bytes, with no spare capacity.
func TestCampaignNDJSONBatchedWrites(t *testing.T) {
	s := New(Options{Parallel: 2})
	log := &writeLog{header: http.Header{}}
	s.Handler().ServeHTTP(log, httptest.NewRequest(http.MethodPost, "/v1/campaign?format=ndjson",
		strings.NewReader(coldCampaignBody(1.5))))
	streamed := bytes.Join(log.writes, nil)
	if n := bytes.Count(streamed, []byte("\n")); n != 256+1 {
		t.Fatalf("%d lines, want 256 points + 1 summary:\n%s", n, streamed)
	}
	if first := streamed[:bytes.IndexByte(streamed, '\n')+1]; !bytes.Equal(log.writes[0], first) {
		t.Errorf("first write is %d bytes, want the first point line alone (%d bytes)", len(log.writes[0]), len(first))
	}
	if len(log.writes) < 3 {
		t.Errorf("%d writes, want the first line, at least one batch and the tail", len(log.writes))
	}
	for i, w := range log.writes[1 : len(log.writes)-1] {
		if len(w) < 32<<10 {
			t.Errorf("write %d is %d bytes, want at least 32 KiB", i+1, len(w))
		}
	}
	var bodies [][]byte
	s.rc.Range(func(_ renderKey, e *renderEntry) { bodies = append(bodies, e.body) })
	if len(bodies) != 1 {
		t.Fatalf("render cache holds %d bodies, want the one stream", len(bodies))
	}
	body := bodies[0]
	if !bytes.Equal(body, streamed) {
		t.Error("cached body differs from the streamed bytes")
	}
	if cap(body) != len(body) {
		t.Errorf("cached body has cap %d for len %d, want no spare capacity", cap(body), len(body))
	}
}

// tornWriter passes a fabric worker's first writes through, flushes
// them, then fails every later write, so the worker tears its stream
// after a fixed number of whole frames.
type tornWriter struct {
	http.ResponseWriter
	writes int // Writes left; a frame is a length prefix and a body
}

func (w *tornWriter) Write(b []byte) (int, error) {
	if w.writes == 0 {
		http.NewResponseController(w.ResponseWriter).Flush()
		return 0, errors.New("stream torn")
	}
	w.writes--
	return w.ResponseWriter.Write(b)
}

// TestCampaignNDJSONMidStreamFailure: when the only worker of a fleet
// tears its stream after 200 of 256 points, the coordinated NDJSON
// stream delivers those 200 lines, byte-identical to a local stream,
// then a terminal error line, and caches nothing.
func TestCampaignNDJSONMidStreamFailure(t *testing.T) {
	const frames = 200
	spec := coldCampaignBody(2.5)
	rec := httptest.NewRecorder()
	New(Options{Parallel: 2}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaign?format=ndjson", strings.NewReader(spec)))
	want := strings.SplitAfter(rec.Body.String(), "\n")[:frames]

	wk := New(Options{Worker: true}).Handler()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wk.ServeHTTP(&tornWriter{ResponseWriter: w, writes: 2 * frames}, r)
	}))
	defer worker.Close()
	coord := New(Options{Coordinate: []string{worker.URL}})
	rec = httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaign?format=ndjson", strings.NewReader(spec)))

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the 200 the stream started with", rec.Code)
	}
	got := strings.SplitAfter(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(got) != frames+1 {
		t.Fatalf("%d lines, want %d points and an error line", len(got), frames)
	}
	if strings.Join(got[:frames], "") != strings.Join(want, "") {
		t.Error("the delivered points differ from the local stream's")
	}
	if last := got[frames]; !strings.HasPrefix(last, `{"error":"fabric: all workers down`) {
		t.Errorf("last line %q, want the terminal error line", last)
	}
	coord.rc.Range(func(k renderKey, _ *renderEntry) {
		t.Errorf("a failed stream left a render-cache entry: %+v", k)
	})
}

// discardWriter is a ResponseWriter that counts its writes.
type discardWriter struct {
	header http.Header
	writes int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.writes++
	return len(b), nil
}

// BenchmarkCampaignNDJSONCold streams a cold 256-point campaign through
// the daemon's handler per iteration — clock values never repeat, so
// every point misses every cache — and reports the ResponseWriter
// writes each stream makes.
func BenchmarkCampaignNDJSONCold(b *testing.B) {
	h := New(Options{Parallel: 2}).Handler()
	bodies := make([]string, b.N)
	for i := range bodies {
		bodies[i] = coldCampaignBody(1.0 + float64(i)*16e-4)
	}
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		clear(w.header)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/campaign?format=ndjson", strings.NewReader(body)))
	}
	b.ReportMetric(float64(w.writes)/float64(b.N), "writes/op")
}
