package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
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
	return NewWorker(eng, nil)
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

// badOwnerFilters are owner/fleet pairs both the snapshot endpoint and
// the warm body must refuse.
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

func TestWarmRejectsBadBody(t *testing.T) {
	wk := NewWorker(repro.NewEngine(repro.Options{}), nil)
	post := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		wk.ServeWarm(rec, httptest.NewRequest(http.MethodPost, WarmPath, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, c := range badOwnerFilters {
		var fleet []string
		for _, f := range c.fleet {
			fleet = append(fleet, `"`+f+`"`)
		}
		body := `{"peers": [], "fleet": [` + strings.Join(fleet, ",") + `], "owner": "` + c.owner + `"}`
		if code, msg := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, code, msg)
		}
	}
	// The body a worker's peers sent before rendezvous hashing.
	old := `{"peers": [], "arc": "0000000000000000-ffffffffffffffff"}`
	if code, msg := post(old); code != http.StatusBadRequest {
		t.Errorf("arc-era warm body: status %d, want 400 (%s)", code, msg)
	}
}

// TestWorkerBodiesBounded: a points or warm body past its bound answers
// 400 before anything is evaluated or installed, even when the bytes
// would decode to a valid request. The padding is whitespace inside the
// JSON object, which an unbounded decoder would read through.
func TestWorkerBodiesBounded(t *testing.T) {
	eng := repro.NewEngine(repro.Options{})
	wk := NewWorker(eng, nil)
	pad := strings.Repeat(" ", maxPointsBody)
	for _, c := range []struct {
		path string
		body string
		h    http.HandlerFunc
	}{
		{PointsPath, `{"spec": ` + string(clockSpecJSON) + `, "points": [0]` + pad + `}`, wk.ServeHTTP},
		{WarmPath, `{"peers": []` + pad + `}`, wk.ServeWarm},
	} {
		rec := httptest.NewRecorder()
		c.h(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
			t.Errorf("%s with a %d B body: status %d: %s", c.path, len(c.body), rec.Code, rec.Body)
		}
	}
	if hits, misses := eng.CacheStats(); hits+misses != 0 {
		t.Errorf("oversized bodies reached the engine: hits=%d misses=%d", hits, misses)
	}
}

// TestWarmRejectsOversizeSnapshot: a peer whose valid snapshot runs
// one byte past the bound is a per-peer error in the warm response, and
// none of its entries are installed. The peer streams its answer in two
// chunks, without a Content-Length, so only the read bound can stop it.
func TestWarmRejectsOversizeSnapshot(t *testing.T) {
	snap := mustSnapshot(t, warmedWorker(t).eng)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", SnapshotContentType)
		for _, part := range [][]byte{snap[:len(snap)/2], snap[len(snap)/2:]} {
			w.Write(part)
			w.(http.Flusher).Flush()
		}
	}))
	defer peer.Close()

	eng := repro.NewEngine(repro.Options{})
	wk := NewWorker(eng, nil)
	wk.maxSnapshot = int64(len(snap) - 1)
	body := `{"peers": ["` + peer.URL + `"], "fleet": ["http://a"], "owner": "http://a"}`
	rec := httptest.NewRecorder()
	wk.ServeWarm(rec, httptest.NewRequest(http.MethodPost, WarmPath, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var wr warmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Installed != 0 || wr.Peers != 0 || len(wr.Errors) != 1 || !strings.Contains(wr.Errors[0], "exceeds") {
		t.Errorf("warm response %+v, want one per-peer size error and nothing installed", wr)
	}
	if !bytes.Equal(mustSnapshot(t, eng), mustSnapshot(t, repro.NewEngine(repro.Options{}))) {
		t.Error("an oversize snapshot left entries in the cache")
	}
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
