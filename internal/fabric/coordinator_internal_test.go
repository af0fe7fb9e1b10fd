package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
)

// fakeWorker answers the points endpoint by replaying pre-evaluated
// points through a script — the tool for protocol-abuse tests a real
// worker would never fail.
func fakeWorker(t *testing.T, points []repro.CampaignPoint, script func(req pointsRequest, send func(repro.CampaignPoint))) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req pointsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake worker: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		flusher, _ := w.(http.Flusher)
		script(req, func(p repro.CampaignPoint) {
			frame, err := appendPoint(nil, p)
			if err != nil {
				t.Errorf("fake worker: %v", err)
				return
			}
			if err := writeFrame(w, frame); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		})
	}))
}

// TestDuplicateAndUnownedFramesDiscarded: a worker that repeats points
// and volunteers points it was never assigned must not break
// exactly-once emission or the assembled result.
func TestDuplicateAndUnownedFramesDiscarded(t *testing.T) {
	spec := testSpec(t)
	points := evalPoints(t, spec)

	srv := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			send(points[i])
			send(points[i]) // duplicate of an owed point: must be discarded
		}
		// A point nobody asked this request for: must be discarded too.
		for i := range points {
			owned := false
			for _, j := range req.Points {
				if i == j {
					owned = true
				}
			}
			if !owned {
				send(points[i])
				break
			}
		}
	})
	defer srv.Close()

	coord, err := NewCoordinator([]string{srv.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []int
	res, err := coord.Run(context.Background(), testSpecJSON, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission %v is not exactly-once grid order", emitted)
		}
	}
	if len(emitted) != len(points) {
		t.Fatalf("emitted %d points, want %d", len(emitted), len(points))
	}
	if !reflect.DeepEqual(res.Points, points) {
		t.Fatal("assembled points differ from reference")
	}
}

// TestStalledWorkerTimesOut: a worker that stops producing frames
// trips the per-point watchdog and loses its shard to a survivor.
func TestStalledWorkerTimesOut(t *testing.T) {
	spec := testSpec(t)
	points := evalPoints(t, spec)

	stall := make(chan struct{})
	stalled := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		send(points[req.Points[0]])
		<-stall // one point, then silence
	})
	defer stalled.Close()
	defer close(stall) // unblock the handler before Close waits on it
	healthy := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			send(points[i])
		}
	})
	defer healthy.Close()

	coord, err := NewCoordinator([]string{stalled.URL, healthy.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.PointTimeout = 200 * time.Millisecond
	start := time.Now()
	res, err := coord.Run(context.Background(), testSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(points) {
		t.Fatalf("assembled %d points, want %d", len(res.Points), len(points))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

// TestEmitErrorAborts: an emit failure cancels the run and surfaces
// as-is.
func TestEmitErrorAborts(t *testing.T) {
	points := evalPoints(t, testSpec(t))
	srv := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			send(points[i])
		}
	})
	defer srv.Close()
	coord, err := NewCoordinator([]string{srv.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errTestAbort("stream consumer gone")
	_, err = coord.Run(context.Background(), testSpecJSON, func(p repro.CampaignPoint) error {
		if p.Index == 2 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

type errTestAbort string

func (e errTestAbort) Error() string { return string(e) }

// TestCoordinatorRejectsBadSpec: spec errors surface before any worker
// is contacted.
func TestCoordinatorRejectsBadSpec(t *testing.T) {
	coord, err := NewCoordinator([]string{"http://unreachable.invalid"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), []byte(`{"machines": ["NoSuch"]}`), nil); err == nil {
		t.Fatal("unknown machine accepted")
	} else if _, ok := err.(*repro.UnknownMachineError); !ok {
		t.Fatalf("err = %T, want *repro.UnknownMachineError", err)
	}
	if _, err := coord.Run(context.Background(), []byte(`{nope`), nil); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestLateDivergentVoteQuarantined drives the run state machine with
// synthetic frames: with three replicas, two agreeing frames decide the
// point, and a third, different frame arriving afterwards still gets
// cross-checked — its worker is quarantined with a replica-mismatch
// reason, and the emitted point is the quorum's.
func TestLateDivergentVoteQuarantined(t *testing.T) {
	coord, err := NewCoordinator([]string{"http://w1", "http://w2", "http://w3"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.Replicas = 3
	var emitted []repro.CampaignPoint
	r := coord.newRun([]uint64{42}, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p)
		return nil
	})
	if err := r.assign([]int{0}); err != nil {
		t.Fatal(err)
	}
	if len(r.queued) != 3 {
		t.Fatalf("dispatched %d requests, want one per replica", len(r.queued))
	}
	quorum := repro.CampaignPoint{Index: 0, Machine: "quorum"}
	late := repro.CampaignPoint{Index: 0, Machine: "tampered"}
	votes := []struct {
		point repro.CampaignPoint
		frame string
	}{{quorum, "frame-A"}, {quorum, "frame-A"}, {late, "frame-B"}}
	for k, v := range votes {
		q := r.queued[k]
		if err := r.onPoint(workerMsg{reqID: q.id, target: q.target, point: v.point, frame: []byte(v.frame)}); err != nil {
			t.Fatalf("vote %d: %v", k, err)
		}
		if k == 1 && len(emitted) != 1 {
			t.Fatalf("two agreeing votes emitted %d points, want the decision", len(emitted))
		}
	}
	if len(emitted) != 1 || emitted[0].Machine != "quorum" {
		t.Fatalf("emitted %+v, want the quorum's point once", emitted)
	}
	lateTarget := r.queued[2].target
	if reason := reasonOf(coord.Membership(), lateTarget); !strings.Contains(reason, "replica mismatch") {
		t.Fatalf("late voter %s reason %q, want a replica mismatch quarantine", lateTarget, reason)
	}
	for _, m := range coord.Membership().Status() {
		if m.Quarantined != (m.Target == lateTarget) {
			t.Errorf("%s quarantined = %v", m.Target, m.Quarantined)
		}
	}
	if got := coord.Stats().Quarantines; got != 1 {
		t.Errorf("Quarantines = %d, want 1", got)
	}
}

// TestWorkerRejectsBadPoints: a points request whose index selection
// is out of range, repeats an index, or selects nothing is answered
// 400 with a JSON error before any frame is written.
func TestWorkerRejectsBadPoints(t *testing.T) {
	wk := NewWorker(repro.NewEngine(repro.Options{}), nil)
	n := testSpec(t).Points()
	for _, tc := range []struct {
		name   string
		points []int
		want   string
	}{
		{"out of range", []int{0, n}, "out of range"},
		{"negative", []int{-1}, "out of range"},
		{"duplicate", []int{1, 2, 1}, "requested twice"},
		{"empty", []int{}, "selects no points"},
	} {
		body, err := json.Marshal(pointsRequest{Spec: testSpecJSON, Points: tc.points})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		wk.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PointsPath, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: content type %q, want JSON (no frame stream)", tc.name, ct)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: body %q, want a JSON error containing %q", tc.name, rec.Body.String(), tc.want)
		}
	}
}
