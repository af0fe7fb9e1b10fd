package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

const fabricCampaignBody = `{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [128, 256]}],
	"threads": [0, 8]
}`

// stopDaemon cancels the daemon and waits for a clean exit.
func stopDaemon(t *testing.T, cancel context.CancelFunc, done <-chan int) {
	t.Helper()
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("shutdown exit code %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// postBody POSTs a campaign and returns status and body.
func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestWorkerCoordinateExclusive: the two roles cannot be combined.
func TestWorkerCoordinateExclusive(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-worker", "-coordinate", "http://w:1"}, &out, &errOut, nil)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Errorf("stderr %q lacks the exclusivity message", errOut.String())
	}
}

// TestCoordinateRejectsBadFleet: an empty or duplicated target list
// fails at boot, before the listener is up.
func TestCoordinateRejectsBadFleet(t *testing.T) {
	for _, list := range []string{",", "http://w:1,http://w:1"} {
		var out, errOut strings.Builder
		if code := run(context.Background(), []string{"-coordinate", list}, &out, &errOut, nil); code != 2 {
			t.Errorf("-coordinate %q: exit %d, want 2 (stderr: %s)", list, code, errOut.String())
		}
	}
}

// TestRestoreRejectsBadSnapshot: a snapshot that does not decode fails
// the boot with exit 1 — never serve cold pretending to be warm.
func TestRestoreRejectsBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-restore", bad}, &out, &errOut, nil); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "restore") {
		t.Errorf("stderr %q lacks a restore error", errOut.String())
	}
	missing := filepath.Join(dir, "missing.snap")
	errOut.Reset()
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-restore", missing}, &out, &errOut, nil); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
}

// TestSnapshotRestoreCycle: a daemon life that evaluated a campaign
// writes its cache on shutdown, and the next life boots warm from it.
func TestSnapshotRestoreCycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")

	// Life one: evaluate a campaign, shut down, leave a snapshot behind.
	url, cancel, done := startDaemon(t, "-parallel", "2", "-snapshot", snap)
	if status, body := postBody(t, url, fabricCampaignBody); status != http.StatusOK {
		t.Fatalf("campaign status %d: %s", status, body)
	}
	stopDaemon(t, cancel, done)
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Life two: boot from the snapshot. The restore count is visible on
	// stdout, and the same campaign answers with identical bytes.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ready := make(chan string, 1)
	done2 := make(chan int, 1)
	var out, errOut strings.Builder
	go func() {
		done2 <- run(ctx, []string{"-addr", "127.0.0.1:0", "-parallel", "2", "-restore", snap}, &out, &errOut, ready)
	}()
	var url2 string
	select {
	case addr := <-ready:
		url2 = "http://" + addr
	case code := <-done2:
		t.Fatalf("warm daemon exited with code %d; stderr: %s", code, errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("warm daemon did not come up")
	}
	if !strings.Contains(out.String(), "restored") {
		t.Errorf("stdout %q lacks the restore report", out.String())
	}
	status, warmBody := postBody(t, url2, fabricCampaignBody)
	if status != http.StatusOK {
		t.Fatalf("warm campaign status %d: %s", status, warmBody)
	}
	stopDaemon(t, cancel2, done2)
}

// TestWorkerServesShardEndpoint is the distributed determinism gate
// on the daemon as shipped: two -worker daemons behind a -coordinate
// daemon serve the example campaign byte-identically to a plain
// daemon, and still do after one worker stops (cancelling its ctx is
// the graceful SIGTERM) — on a second spec, so the coordinator's render
// cache cannot replay the first answer.
func TestWorkerServesShardEndpoint(t *testing.T) {
	w1, cancel1, done1 := startDaemon(t, "-parallel", "2", "-worker")
	defer cancel1()
	w2, cancel2, done2 := startDaemon(t, "-parallel", "2", "-worker")
	defer cancel2()
	plain, cancel3, done3 := startDaemon(t, "-parallel", "4")
	defer cancel3()
	coord, cancel4, done4 := startDaemon(t, "-coordinate", w1+","+w2)
	defer cancel4()

	sameCampaign(t, plain, coord, "../../examples/campaign/spec.json")
	stopDaemon(t, cancel1, done1)
	sameCampaign(t, plain, coord, "../../examples/scaling/campaign.json")

	stopDaemon(t, cancel4, done4)
	stopDaemon(t, cancel3, done3)
	stopDaemon(t, cancel2, done2)
}

// TestReplicasFlagValidation: -replicas is bounded below and is a
// coordinator-only feature.
func TestReplicasFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero", []string{"-coordinate", "http://w:1", "-replicas", "0"}, "at least 1"},
		{"negative", []string{"-coordinate", "http://w:1", "-replicas", "-3"}, "at least 1"},
		{"without coordinate", []string{"-replicas", "2"}, "needs -coordinate"},
		{"worker with replicas", []string{"-worker", "-replicas", "2"}, "needs -coordinate"},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), c.args, &out, &errOut, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", c.name, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), c.want) {
			t.Errorf("%s: stderr %q lacks %q", c.name, errOut.String(), c.want)
		}
	}
}

// TestWorkerServesSelfHealingSurface: a -worker daemon answers the
// prober's healthz and the peer snapshot endpoint.
func TestWorkerServesSelfHealingSurface(t *testing.T) {
	url, cancel, done := startDaemon(t, "-worker", "-parallel", "2")
	defer stopDaemon(t, cancel, done)

	resp, err := http.Get(url + "/v1/fabric/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fabric healthz: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(url + "/v1/fabric/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fabric snapshot: status %d, want 200", resp.StatusCode)
	}
}

// TestReplicatedFleetEndToEnd is the self-healing chaos gate on the
// daemon as shipped: three -worker daemons behind a -replicas 2
// coordinator with a fast prober, against a plain daemon. Worker 0
// stops (the campaign stays byte-identical), restarts on its old
// address (the prober revives it and the coordinator warm-joins it,
// both seen in the coordinator's /metrics and in the worker's own
// request counters), and ends as the sole survivor serving a campaign
// alone under degraded quorum. Each phase posts a distinct spec, so the
// coordinator's render cache never replays an earlier phase's bytes,
// and an honest fleet is never quarantined.
func TestReplicatedFleetEndToEnd(t *testing.T) {
	var targets []string
	var cancels []context.CancelFunc
	var dones []<-chan int
	for i := 0; i < 3; i++ {
		url, cancel, done := startDaemon(t, "-worker", "-parallel", "2")
		defer cancel()
		targets, cancels, dones = append(targets, url), append(cancels, cancel), append(dones, done)
	}
	coordURL, cancel, done := startDaemon(t,
		"-coordinate", strings.Join(targets, ","), "-replicas", "2",
		"-probe-interval", "100ms", "-probe-timeout", "1s", "-probe-backoff", "500ms")
	defer stopDaemon(t, cancel, done)
	localURL, cancelLocal, doneLocal := startDaemon(t, "-parallel", "4")
	defer stopDaemon(t, cancelLocal, doneLocal)

	// Phase 1: the full replicated fleet.
	sameCampaign(t, localURL, coordURL, "../../examples/campaign/spec.json")

	// Phase 2: worker 0 stops.
	stopDaemon(t, cancels[0], dones[0])
	waitMetric(t, coordURL, "sg2042d_fabric_probe_deaths_total", 1)
	sameCampaign(t, localURL, coordURL, "../../examples/scaling/campaign.json")

	// Phase 3: worker 0 restarts, cold, on its old address.
	w0, cancel0, done0 := startDaemon(t, "-addr", strings.TrimPrefix(targets[0], "http://"), "-worker", "-parallel", "2")
	defer stopDaemon(t, cancel0, done0)
	if w0 != targets[0] {
		t.Fatalf("restarted worker serves on %s, want its old %s", w0, targets[0])
	}
	waitMetric(t, coordURL, "sg2042d_fabric_probe_revivals_total", 1)
	waitMetric(t, coordURL, "sg2042d_fabric_warm_joins_total", 1)
	sameCampaign(t, localURL, coordURL, "../../examples/chaos/rejoin.json")
	waitMetric(t, w0, `sg2042d_requests_total{endpoint="fabric-warm"}`, 1)
	waitMetric(t, w0, `sg2042d_requests_total{endpoint="fabric-healthz"}`, 1)

	// Phase 4: the restarted worker is the sole survivor.
	stopDaemon(t, cancels[1], dones[1])
	stopDaemon(t, cancels[2], dones[2])
	waitMetric(t, coordURL, "sg2042d_fabric_probe_deaths_total", 3)
	sameCampaign(t, localURL, coordURL, "../../examples/chaos/solo.json")
	waitMetric(t, w0, `sg2042d_requests_total{endpoint="fabric-points"}`, 1)
	if q := metric(t, coordURL, "sg2042d_fabric_quarantines_total"); q != 0 {
		t.Errorf("an honest fleet was quarantined %d time(s)", q)
	}
}

// sameCampaign posts the campaign spec file to the local daemon and to
// the fleet and requires the same 200 body from both.
func sameCampaign(t *testing.T, local, fleet, specFile string) {
	t.Helper()
	spec, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	status, want := postBody(t, local, string(spec))
	if status != http.StatusOK {
		t.Fatalf("%s: local daemon status %d: %s", specFile, status, want)
	}
	status, got := postBody(t, fleet, string(spec))
	if status != http.StatusOK {
		t.Fatalf("%s: fleet status %d: %s", specFile, status, got)
	}
	if got != want {
		t.Errorf("%s: the fleet's body differs from the single daemon's", specFile)
	}
}

// metric reads one sample from the daemon's /metrics: the value on the
// line that starts with name, or -1 when there is none.
func metric(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %q is not a count", name, v)
			}
			return n
		}
	}
	return -1
}

// waitMetric polls the daemon's /metrics until name reaches min.
func waitMetric(t *testing.T, url, name string, min int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v := metric(t, url, name)
		if v >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s >= %d on %s (last: %d)", name, min, url, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
