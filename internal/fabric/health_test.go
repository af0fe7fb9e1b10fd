package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
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
