package fabric

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastProbe is the cadence fabric tests run the prober at: quick enough
// that transition-polling loops converge in tens of milliseconds, slow
// enough not to flood httptest servers.
var fastProbe = ProbeConfig{
	Interval: 20 * time.Millisecond,
	Timeout:  500 * time.Millisecond,
	Backoff:  60 * time.Millisecond,
}

// waitFor polls cond every few milliseconds until it holds or the
// budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestProberDrivesMembership runs a real prober against a health
// endpoint that can be flipped sick, and checks the full lifecycle:
// live → dead on probe failure, dead → live on recovery, with the
// transition callback firing exactly on the edges.
func TestProberDrivesMembership(t *testing.T) {
	var sick atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != HealthPath {
			http.NotFound(w, r)
			return
		}
		if sick.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	mem, err := NewMembership([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var edges []bool
	p := NewProber(mem, fastProbe, nil, func(target string, live bool) {
		if target != srv.URL {
			t.Errorf("transition for unexpected target %s", target)
		}
		mu.Lock()
		edges = append(edges, live)
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	wait := p.Start(ctx)
	defer func() {
		cancel()
		wait()
	}()

	edgeCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(edges)
	}

	// Healthy worker: stays live, no edges fire.
	time.Sleep(5 * fastProbe.Interval)
	if n := edgeCount(); n != 0 {
		t.Fatalf("%d transitions on a steadily healthy worker", n)
	}
	if mem.DeadSet()[srv.URL] {
		t.Fatal("healthy worker marked dead")
	}

	sick.Store(true)
	waitFor(t, "death transition", func() bool { return edgeCount() == 1 })
	if mu.Lock(); edges[0] != false {
		mu.Unlock()
		t.Fatal("first edge was a revival, want a death")
	} else {
		mu.Unlock()
	}
	if !mem.DeadSet()[srv.URL] {
		t.Fatal("sick worker not in DeadSet")
	}

	sick.Store(false)
	waitFor(t, "revival transition", func() bool { return edgeCount() == 2 })
	mu.Lock()
	if edges[1] != true {
		mu.Unlock()
		t.Fatal("second edge was not a revival")
	}
	mu.Unlock()
	if mem.DeadSet()[srv.URL] {
		t.Fatal("recovered worker still in DeadSet")
	}
	if mem.Epoch(srv.URL) != 1 {
		t.Fatalf("epoch after one bounce = %d, want 1", mem.Epoch(srv.URL))
	}
}

// TestProberRespectsQuarantine: a quarantined worker keeps answering
// health probes 200, and must stay dead anyway.
func TestProberRespectsQuarantine(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	mem, err := NewMembership([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	mem.Quarantine(srv.URL, "replica mismatch")

	var revived atomic.Int32
	p := NewProber(mem, fastProbe, nil, func(target string, live bool) {
		if live {
			revived.Add(1)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	wait := p.Start(ctx)
	defer func() {
		cancel()
		wait()
	}()

	time.Sleep(5 * fastProbe.Interval)
	if n := revived.Load(); n != 0 {
		t.Fatalf("prober revived a quarantined worker %d time(s)", n)
	}
	if !mem.DeadSet()[srv.URL] {
		t.Fatal("quarantined worker left DeadSet under a healthy probe")
	}
}

// TestProberStopTerminates: after ctx is cancelled, wait returns
// promptly with loops in the backoff state (a dead target), not just
// the happy path.
func TestProberStopTerminates(t *testing.T) {
	mem, err := NewMembership([]string{"http://127.0.0.1:1"}) // nothing listens
	if err != nil {
		t.Fatal(err)
	}
	p := NewProber(mem, fastProbe, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	wait := p.Start(ctx)
	waitFor(t, "unreachable target to die", func() bool { return mem.DeadSet()["http://127.0.0.1:1"] })

	done := make(chan struct{})
	go func() {
		cancel()
		wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the prober's wait did not return after cancel")
	}
}

// countingTransport counts the round trips in flight. A failed round
// trip stays in flight a little longer, so a wait that returned without
// waiting for it finds it still counted.
type countingTransport struct {
	inflight atomic.Int32
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		time.Sleep(100 * time.Millisecond)
	}
	return resp, err
}

// TestProberWaitStopsWarmShipments: a warm shipment in flight stops
// with the prober. A worker dies and revives; the coordinator's relay
// hangs, once in the peer's snapshot GET and once in the joiner's warm
// POST, until its request ends. After cancel, the prober's wait returns
// within a fixed bound with no relay left in flight, and the hung
// handler has seen its request cancelled.
func TestProberWaitStopsWarmShipments(t *testing.T) {
	for _, hang := range []string{SnapshotPath, WarmPath} {
		t.Run(path.Base(hang), func(t *testing.T) { testWarmHang(t, hang) })
	}
}

func testWarmHang(t *testing.T, hang string) {
	var sick atomic.Bool
	sick.Store(true)
	entered, cancelled := make(chan struct{}), make(chan struct{})
	var enter, seen sync.Once
	block := func(r *http.Request) {
		// Until the body is read, net/http does not watch the
		// connection for the client going away.
		io.Copy(io.Discard, r.Body)
		enter.Do(func() { close(entered) })
		<-r.Context().Done()
		seen.Do(func() { close(cancelled) })
	}
	revived := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == WarmPath:
			block(r)
		case sick.Load():
			http.Error(w, "sick", http.StatusInternalServerError)
		}
	}))
	defer revived.Close()
	// The peer answers its snapshot with an empty body, unless the
	// snapshot GET is where the relay hangs.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == hang {
			block(r)
		}
	}))
	defer peer.Close()

	transport := &countingTransport{}
	coord, err := NewCoordinator([]string{revived.URL, peer.URL}, nil, &http.Client{Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := coord.StartProber(ctx, fastProbe)
	waitFor(t, "the sick worker to die", func() bool { return coord.mem.DeadSet()[revived.URL] })
	sick.Store(false)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("no warm relay reached %s", hang)
	}

	done := make(chan struct{})
	go func() {
		cancel()
		wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the prober's wait did not return after cancel with a warm shipment in flight")
	}
	if n := transport.inflight.Load(); n != 0 {
		t.Errorf("wait returned with %d warm relays in flight", n)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatalf("the %s handler never saw its request cancelled", hang)
	}
}
