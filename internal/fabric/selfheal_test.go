package fabric_test

// Self-healing and replica cross-check tests: real workers on httptest
// servers, a real coordinator with a real health prober — killed and
// restarted mid-fleet — plus the byte-level replica voting paths, with
// faulttest's Tamper standing in for a worker that answers wrong bytes.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/fabric/faulttest"
)

// wideSpecJSON spreads the grid over 64 distinct machine fingerprints
// (2 machines x 32 vector widths). The ring layout depends on the
// workers' ephemeral ports, so a worker's share of the key space varies
// run to run; with 64 distinct shard keys every worker of a 3-node
// fleet owns some of the grid with overwhelming probability — the
// narrower specJSON has only 4 distinct shard keys, too few to
// guarantee a chosen victim (or a rejoining worker) any work.
var wideSpecJSON = []byte(`{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [
		40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128,
		136, 144, 152, 160, 168, 176, 184, 192, 200, 208, 216, 224,
		232, 240, 248, 256, 320, 384, 448, 512]}],
	"threads": [0],
	"precisions": ["f64"]
}`)

// faultSeed returns the seed for a seeded fault schedule, overridable
// via FABRIC_FAULT_SEED so the chaos CI job can sweep several schedules
// over the same binaries (make determinism-chaos).
func faultSeed(def int64) int64 {
	if s := os.Getenv("FABRIC_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil {
			return v
		}
	}
	return def
}

// evalDirect is singleProcess for an arbitrary spec.
func evalDirect(t *testing.T, raw []byte) repro.CampaignResult {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.NewEngine(repro.Options{}).Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runCoord runs one campaign through an already-configured coordinator,
// asserting exactly-once in-grid-order emission.
func runCoord(t *testing.T, coord *fabric.Coordinator, raw []byte) repro.CampaignResult {
	t.Helper()
	var emitted []int
	res, err := coord.Run(context.Background(), raw, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(res.Points) {
		t.Fatalf("emitted %d points for a %d-point grid", len(emitted), len(res.Points))
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission order %v is not grid order", emitted)
		}
	}
	return res
}

func newCoord(t *testing.T, cluster *faulttest.Cluster) *fabric.Coordinator {
	t.Helper()
	coord, err := fabric.NewCoordinator(cluster.Targets(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.PointTimeout = 10 * time.Second
	return coord
}

// waitForStats polls the coordinator's fabric stats until cond holds.
func waitForStats(t *testing.T, coord *fabric.Coordinator, what string, cond func(fabric.FabricStats) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond(coord.Stats()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats: %+v", what, coord.Stats())
}

// TestWorkerRestartRejoins is the self-healing acceptance path: a
// three-worker fleet under a live prober loses a worker, keeps serving
// byte-identical campaigns on the survivors, then the worker restarts
// on its old address — cold — and the prober revives it, ships it peer
// snapshots covering its keys, and routes to it again. No coordinator
// restart anywhere.
func TestWorkerRestartRejoins(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	cluster := faulttest.NewCluster(3)
	defer cluster.Close()
	coord := newCoord(t, cluster)
	ctx, cancel := context.WithCancel(context.Background())
	wait := coord.StartProber(ctx, fabric.ProbeConfig{
		Interval: 20 * time.Millisecond,
		Timeout:  2 * time.Second,
		Backoff:  100 * time.Millisecond,
	})
	defer func() {
		cancel()
		wait()
	}()

	// Phase 1: full fleet.
	assertIdentical(t, want, runCoord(t, coord, wideSpecJSON))

	// Phase 2: worker 1 dies. The prober notices; the survivors absorb
	// its keys — and, by evaluating them, cache exactly the entries the
	// restarted worker will be shipped.
	cluster.Kill(1)
	waitForStats(t, coord, "probe death", func(s fabric.FabricStats) bool {
		return s.ProbeDeaths >= 1
	})
	assertIdentical(t, want, runCoord(t, coord, wideSpecJSON))

	// Phase 3: the worker restarts on the same address with a cold
	// engine (a bounced process keeps nothing). The prober revives it
	// and the coordinator warm-joins it from its ring peers.
	if err := cluster.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, coord, "revival and warm join", func(s fabric.FabricStats) bool {
		return s.ProbeRevivals >= 1 && s.WarmJoins >= 1 && s.WarmInstalled > 0
	})

	assertIdentical(t, want, runCoord(t, coord, wideSpecJSON))
	// The rejoined worker took its keys back warm: every shard key
	// routed to it was in the shipped snapshot. Each point's ratio
	// column also evaluates its base machine's suite, and the two base
	// fingerprints need not be owned by this worker — so up to
	// two side-computation misses are legitimate; more means the warm
	// join shipped short.
	hits, misses := cluster.Node(1).Engine.CacheStats()
	if misses > 2 {
		t.Errorf("rejoined worker evaluated %d suites, want at most the 2 base suites beside shipped-snapshot hits", misses)
	}
	if hits == 0 {
		t.Error("rejoined worker served nothing after revival")
	}
	for _, ms := range coord.Membership().Status() {
		if !ms.Live {
			t.Errorf("worker %s still dead after the fleet healed: %+v", ms.Target, ms)
		}
	}
}

// TestWorkerRejoinsMidCampaign: a worker that is dead when the campaign
// starts is revived while the campaign runs (the prober edge, driven
// here deterministically through the membership) and must take work
// back within the same run — the epoch forgiveness path.
func TestWorkerRejoinsMidCampaign(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	cluster := faulttest.NewCluster(2)
	defer cluster.Close()
	coord := newCoord(t, cluster)
	mem := coord.Membership()
	w0 := cluster.Targets()[0]

	// Worker 0 is dead at dispatch time, so worker 1 is assigned the
	// whole grid — and is armed to die partway through it.
	mem.MarkDead(w0, "health probe: connection refused")
	cluster.Arm(1, 5)

	revived := false
	var emitted []int
	res, err := coord.Run(context.Background(), wideSpecJSON, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p.Index)
		if !revived {
			// First point emitted — worker 1 is mid-stream, strictly
			// before its armed frame. Revive worker 0 exactly as the
			// prober would; when worker 1 dies, the re-assignment must
			// route its outstanding points here.
			revived = true
			if !mem.MarkLive(w0) {
				t.Error("MarkLive(w0) mid-campaign reported no transition")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("campaign failed despite a revived worker: %v", err)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission order %v is not grid order", emitted)
		}
	}
	assertIdentical(t, want, res)
	// The revived worker must actually have served the failover work.
	if hits, misses := cluster.Node(0).Engine.CacheStats(); hits+misses == 0 {
		t.Fatal("revived worker evaluated nothing — rejoin never routed to it")
	}
}

// TestReplicasByteIdentical: replication changes nothing about the
// answer — with every worker honest, -replicas 2 and 3 produce the
// single-process bytes and quarantine nobody.
func TestReplicasByteIdentical(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	for _, r := range []int{2, 3} {
		cluster := faulttest.NewCluster(3)
		coord := newCoord(t, cluster)
		coord.Replicas = r
		got := runCoord(t, coord, wideSpecJSON)
		cluster.Close()
		assertIdentical(t, want, got)
		if q := coord.Stats().Quarantines; q != 0 {
			t.Errorf("replicas=%d quarantined %d honest workers", r, q)
		}
	}
}

// TestTamperedWorkerQuarantined is the replica acceptance path: one
// worker of three silently flips a bit inside a frame body — a fault no
// stream decoder can see. Under -replicas 2 the campaign must still
// emit the correct bytes, and the tampering worker must end the run
// quarantined with a typed mismatch reason.
func TestTamperedWorkerQuarantined(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	rng := rand.New(rand.NewSource(faultSeed(42)))
	for round := 0; round < 3; round++ {
		victim := rng.Intn(3)
		frame := 1 + rng.Intn(4)
		t.Logf("round %d: tampering worker %d at frame %d", round, victim, frame)
		cluster := faulttest.NewCluster(3)
		coord := newCoord(t, cluster)
		coord.Replicas = 2
		cluster.Tamper(victim, frame)
		got := runCoord(t, coord, wideSpecJSON)
		assertIdentical(t, want, got)
		if q := coord.Stats().Quarantines; q < 1 {
			t.Fatalf("round %d: tampered worker escaped quarantine", round)
		}
		quarantined := false
		for _, ms := range coord.Membership().Status() {
			if ms.Target != cluster.Targets()[victim] {
				continue
			}
			quarantined = ms.Quarantined
			if ms.Live {
				t.Errorf("round %d: quarantined worker still live", round)
			}
			if !strings.Contains(ms.Reason, "replica mismatch") {
				t.Errorf("round %d: quarantine reason %q does not name the mismatch", round, ms.Reason)
			}
		}
		if !quarantined {
			t.Fatalf("round %d: membership does not show worker %d quarantined", round, victim)
		}
		cluster.Close()
	}
}

// TestReplicasSurviveWorkerDeath: replication composes with failover —
// a worker dying mid-stream under -replicas 2 costs its votes, not the
// campaign, and an honest death is never treated as divergence.
func TestReplicasSurviveWorkerDeath(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	rng := rand.New(rand.NewSource(faultSeed(7)))
	for round := 0; round < 3; round++ {
		victim := rng.Intn(3)
		frame := 1 + rng.Intn(4)
		t.Logf("round %d: killing worker %d at frame %d", round, victim, frame)
		cluster := faulttest.NewCluster(3)
		coord := newCoord(t, cluster)
		coord.Replicas = 2
		cluster.Arm(victim, frame)
		got := runCoord(t, coord, wideSpecJSON)
		cluster.Close()
		assertIdentical(t, want, got)
		if q := coord.Stats().Quarantines; q != 0 {
			t.Errorf("round %d: a crashed (not divergent) worker was quarantined %d time(s)", round, q)
		}
	}
}

// TestReplicaMismatchUnresolvable: two workers, two replicas, one
// tampered — a 1-1 split with no third worker to break the tie. The
// coordinator must refuse to guess and fail with the typed error
// carrying both digests.
func TestReplicaMismatchUnresolvable(t *testing.T) {
	cluster := faulttest.NewCluster(2)
	defer cluster.Close()
	coord := newCoord(t, cluster)
	coord.Replicas = 2
	cluster.Tamper(0, 1)

	_, err := coord.Run(context.Background(), specJSON, nil)
	var mismatch *fabric.ReplicaMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %v, want *ReplicaMismatchError", err)
	}
	if len(mismatch.Votes) != 2 {
		t.Fatalf("mismatch carries %d votes, want 2: %v", len(mismatch.Votes), mismatch.Votes)
	}
	digests := map[string]bool{}
	for _, d := range mismatch.Votes {
		digests[d] = true
	}
	if len(digests) != 2 {
		t.Fatalf("votes %v are not divergent", mismatch.Votes)
	}
	if !strings.Contains(err.Error(), "replica mismatch") {
		t.Fatalf("error %q does not name the mismatch", err)
	}
}
