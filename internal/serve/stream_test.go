package serve

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
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

// TestWorkerMountedInDaemonDoesNotFlush: the daemon-mounted fabric
// worker sees no http.Flusher behind the metrics wrapper, so its frames
// batch in net/http's buffers as they always have; only a directly
// mounted worker flushes per frame.
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
