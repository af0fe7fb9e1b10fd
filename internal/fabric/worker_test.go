package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
)

// clockSpecJSON spreads a campaign over 32 derived machines (2 bases x
// 16 clocks), so every worker of a small fleet owns some cache entries.
var clockSpecJSON = []byte(`{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "clock", "values": [
		1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7,
		1.8, 1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5]}],
	"threads": [0],
	"precisions": ["f64"]
}`)

// warmedWorker returns a worker whose suite cache holds clockSpecJSON's
// entries.
func warmedWorker(t *testing.T) *Worker {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(clockSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.Options{})
	if _, err := eng.Campaign(spec); err != nil {
		t.Fatal(err)
	}
	return NewWorker(eng)
}

// getSnapshot calls ServeSnapshot with the given query and returns the
// status and body.
func getSnapshot(wk *Worker, query string) (int, []byte) {
	rec := httptest.NewRecorder()
	wk.ServeSnapshot(rec, httptest.NewRequest(http.MethodGet, SnapshotPath+query, nil))
	return rec.Code, rec.Body.Bytes()
}

func ownerQuery(owner string, fleet []string) string {
	return "?" + url.Values{"owner": {owner}, "fleet": fleet}.Encode()
}

// TestOwnerSnapshotsPartitionCache is the property warm-joins stand
// on: the per-owner snapshots of one cache are pairwise disjoint and
// together restore exactly the full snapshot's entries, so a joining
// worker warms precisely the keys the ring will route to it. On a
// one-worker fleet the owner's snapshot is the full one.
func TestOwnerSnapshotsPartitionCache(t *testing.T) {
	wk := warmedWorker(t)
	code, full := getSnapshot(wk, "")
	if code != http.StatusOK {
		t.Fatalf("full snapshot: status %d", code)
	}
	total, err := repro.NewEngine(repro.Options{}).RestoreCache(full)
	if err != nil {
		t.Fatal(err)
	}

	fleet := ringTargets(4)
	union := repro.NewEngine(repro.Options{})
	sum := 0
	for _, owner := range fleet {
		code, part := getSnapshot(wk, ownerQuery(owner, fleet))
		if code != http.StatusOK {
			t.Fatalf("%s's snapshot: status %d: %s", owner, code, part)
		}
		n, err := repro.NewEngine(repro.Options{}).RestoreCache(part)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("%s owns none of the %d cache entries", owner, total)
		}
		installed, err := union.RestoreCache(part)
		if err != nil {
			t.Fatal(err)
		}
		if installed != n {
			t.Errorf("%s's %d entries overlap other owners' (%d new)", owner, n, installed)
		}
		sum += n
	}
	if sum != total {
		t.Errorf("owners' snapshots hold %d entries, the full cache %d", sum, total)
	}
	restored, err := union.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, full) {
		t.Error("union of the owners' snapshots differs from the full snapshot")
	}

	solo := ringTargets(1)
	code, only := getSnapshot(wk, ownerQuery(solo[0], solo))
	if code != http.StatusOK || !bytes.Equal(only, full) {
		t.Errorf("one-worker fleet: status %d, snapshot equal to full: %v", code, bytes.Equal(only, full))
	}
}

// badOwnerFilters are owner/fleet pairs the snapshot endpoint must
// refuse.
var badOwnerFilters = []struct {
	name  string
	owner string
	fleet []string
}{
	{"owner not in fleet", "http://w9:8042", ringTargets(2)},
	{"empty fleet target", ringTargets(1)[0], append(ringTargets(1), "")},
	{"duplicate fleet target", ringTargets(1)[0], append(ringTargets(2), ringTargets(1)[0])},
	{"owner without fleet", ringTargets(1)[0], nil},
	{"fleet without owner", "", ringTargets(2)},
}

func TestSnapshotRejectsBadOwnerFilter(t *testing.T) {
	wk := warmedWorker(t)
	for _, c := range badOwnerFilters {
		q := url.Values{"fleet": c.fleet}
		if c.owner != "" {
			q.Set("owner", c.owner)
		}
		if code, body := getSnapshot(wk, "?"+q.Encode()); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, code, body)
		}
	}
}

// postWarm calls ServeWarm with body and returns the status and body.
func postWarm(wk *Worker, body io.Reader) (int, string) {
	rec := httptest.NewRecorder()
	wk.ServeWarm(rec, httptest.NewRequest(http.MethodPost, WarmPath, body))
	return rec.Code, rec.Body.String()
}

// TestWarmRejectsBadBody: a warm body is one snapshot, restored
// all-or-nothing. Anything that does not decode as one — the JSON
// orders older coordinators sent, an empty body, a cut snapshot — is a
// 400 and installs nothing; the whole snapshot installs every entry.
func TestWarmRejectsBadBody(t *testing.T) {
	snap := mustSnapshot(t, warmedWorker(t).eng)
	eng := repro.NewEngine(repro.Options{})
	wk := NewWorker(eng)
	for name, body := range map[string]string{
		"peers order": `{"peers": ["http://w1:8042"], "fleet": ["http://w0:8042", "http://w1:8042"], "owner": "http://w0:8042"}`,
		"arc order":   `{"peers": [], "arc": "0000000000000000-ffffffffffffffff"}`,
		"empty":       "",
		"cut":         string(snap[:len(snap)-1]),
	} {
		if code, msg := postWarm(wk, strings.NewReader(body)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, code, msg)
		}
	}
	if !bytes.Equal(mustSnapshot(t, eng), mustSnapshot(t, repro.NewEngine(repro.Options{}))) {
		t.Fatal("a rejected warm body left entries in the cache")
	}
	code, msg := postWarm(wk, bytes.NewReader(snap))
	if code != http.StatusOK {
		t.Fatalf("whole snapshot: status %d: %s", code, msg)
	}
	var wr warmResponse
	if err := json.Unmarshal([]byte(msg), &wr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustSnapshot(t, eng), snap) || wr.Installed == 0 {
		t.Errorf("whole snapshot installed %d entries, and the cache does not match it", wr.Installed)
	}
}

// TestWarmDialsNothing: a warm body naming a host is just bytes that
// are not a snapshot. The worker answers 400 and the host it names
// never sees a request.
func TestWarmDialsNothing(t *testing.T) {
	var hits atomic.Int64
	host := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer host.Close()
	wk := NewWorker(repro.NewEngine(repro.Options{}))
	for _, body := range []string{
		`{"peers": ["` + host.URL + `"], "fleet": ["http://a"], "owner": "http://a"}`,
		host.URL + SnapshotPath,
	} {
		if code, msg := postWarm(wk, strings.NewReader(body)); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%s)", body, code, msg)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the host a warm body named saw %d requests", n)
	}
}

// fabricHandler serves wk's snapshot and warm endpoints under the
// daemon's method patterns.
func fabricHandler(wk *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+SnapshotPath, wk.ServeSnapshot)
	mux.HandleFunc("POST "+WarmPath, wk.ServeWarm)
	return mux
}

// TestShipWarmRelaysPeerSnapshots: the coordinator relays each live
// peer's snapshot, filtered to the joiner's keys, into the joiner, with
// the snapshot's length declared on the POST. A
// peer whose snapshot GET fails costs one WarmError and the rest of
// the shipment still joins; a shipment no relay got through is tried
// warmAttempts times, each failure counted, and joins nothing.
func TestShipWarmRelaysPeerSnapshots(t *testing.T) {
	peer := warmedWorker(t)
	good := httptest.NewServer(fabricHandler(peer))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no snapshot", http.StatusInternalServerError)
	}))
	defer bad.Close()
	eng := repro.NewEngine(repro.Options{})
	var declared atomic.Int64
	joined := fabricHandler(NewWorker(eng))
	joiner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == WarmPath {
			declared.Store(r.ContentLength)
		}
		joined.ServeHTTP(w, r)
	}))
	defer joiner.Close()

	fleet := []string{joiner.URL, good.URL, bad.URL}
	coord, err := NewCoordinator(fleet, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.shipWarm(context.Background(), joiner.URL)
	code, owned := getSnapshot(peer, ownerQuery(joiner.URL, fleet))
	if code != http.StatusOK {
		t.Fatalf("joiner's share of the peer: status %d", code)
	}
	if !bytes.Equal(mustSnapshot(t, eng), owned) {
		t.Error("the joiner's cache is not the peer's snapshot of the joiner's keys")
	}
	if n := declared.Load(); n != int64(len(owned)) {
		t.Errorf("the relayed POST declared %d bytes, want the snapshot's %d", n, len(owned))
	}
	want, err := repro.NewEngine(repro.Options{}).RestoreCache(owned)
	if err != nil {
		t.Fatal(err)
	}
	if s := coord.Stats(); s.WarmJoins != 1 || s.WarmErrors != 1 || s.WarmInstalled != uint64(want) {
		t.Errorf("stats %+v, want 1 join, 1 error, %d installed", s, want)
	}

	coord, err = NewCoordinator([]string{joiner.URL, bad.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.shipWarm(context.Background(), joiner.URL)
	if s := coord.Stats(); s.WarmJoins != 0 || s.WarmErrors != warmAttempts || s.WarmInstalled != 0 {
		t.Errorf("stats %+v after a shipment with no good peer, want 0 joins and %d errors", s, warmAttempts)
	}
}

// TestWorkerBodiesBounded: a points body past its bound answers 400
// before anything is evaluated, even when the bytes would decode to a
// valid request. The padding is whitespace inside the JSON object,
// which an unbounded decoder would read through.
func TestWorkerBodiesBounded(t *testing.T) {
	eng := repro.NewEngine(repro.Options{})
	wk := NewWorker(eng)
	body := `{"spec": ` + string(clockSpecJSON) + `, "points": [0]` + strings.Repeat(" ", maxPointsBody) + `}`
	rec := httptest.NewRecorder()
	wk.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PointsPath, strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Errorf("%s with a %d B body: status %d: %s", PointsPath, len(body), rec.Code, rec.Body)
	}
	if hits, misses := eng.CacheStats(); hits+misses != 0 {
		t.Errorf("an oversized body reached the engine: hits=%d misses=%d", hits, misses)
	}
}

// TestWarmRejectsOversizeSnapshot: a warm body of maxSnapshotBody+1
// bytes — a valid snapshot, then zeros — answers "too large" and
// installs nothing. The bytes are generated as they are read, so only
// the read bound can stop them when no length is declared. A declared
// length past the bound is refused before a byte is read, and a
// declared length the body falls short of costs only the bytes that
// came: both allocate far less than the bound.
func TestWarmRejectsOversizeSnapshot(t *testing.T) {
	snap := mustSnapshot(t, warmedWorker(t).eng)
	oversize := func() io.Reader {
		return io.MultiReader(bytes.NewReader(snap), io.LimitReader(zeros{}, maxSnapshotBody+1-int64(len(snap))))
	}
	eng := repro.NewEngine(repro.Options{})
	wk := NewWorker(eng)
	code, msg := postWarm(wk, oversize())
	if code != http.StatusBadRequest || !strings.Contains(msg, "too large") {
		t.Errorf("status %d, want 400 too large: %s", code, msg)
	}
	if !bytes.Equal(mustSnapshot(t, eng), mustSnapshot(t, repro.NewEngine(repro.Options{}))) {
		t.Error("an oversize snapshot left entries in the cache")
	}

	// warmAllocs serves one warm POST whose body declares length bytes
	// and returns the status, the body bytes read and the bytes
	// allocated.
	warmAllocs := func(body io.Reader, length int64) (int, int64, uint64) {
		counted := &countingReader{r: body}
		req := httptest.NewRequest(http.MethodPost, WarmPath, counted)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wk.ServeWarm(rec, req)
		runtime.ReadMemStats(&after)
		return rec.Code, counted.n, after.TotalAlloc - before.TotalAlloc
	}
	const far = maxSnapshotBody / 64
	code, read, alloc := warmAllocs(oversize(), maxSnapshotBody+1)
	if code != http.StatusBadRequest || read != 0 || alloc > far {
		t.Errorf("declared %d B: status %d, read %d B, allocated %d B; want 400, nothing read, under %d B",
			maxSnapshotBody+1, code, read, alloc, far)
	}
	code, read, alloc = warmAllocs(bytes.NewReader(snap), maxSnapshotBody)
	if code != http.StatusOK || read != int64(len(snap)) || alloc > far {
		t.Errorf("declared %d B, sent the %d B snapshot: status %d, read %d B, allocated %d B; want 200 under %d B",
			int64(maxSnapshotBody), len(snap), code, read, alloc, far)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// mustSnapshot returns eng's full snapshot.
func mustSnapshot(t *testing.T, eng *repro.Engine) []byte {
	t.Helper()
	snap, err := eng.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
