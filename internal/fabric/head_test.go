package fabric

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestHeadStreamsWhileWorkerHeld: a streamed run emits grid index 0
// from the coordinator's own evaluation while its only worker's points
// handler is still held, and the point is the one a local run emits
// first, frame byte for frame byte. The worker's own frame for index 0,
// once released, agrees and changes nothing.
func TestHeadStreamsWhileWorkerHeld(t *testing.T) {
	points := evalPoints(t, testSpec(t))
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	wk := NewWorker(repro.NewEngine(repro.Options{}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		wk.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer open() // before srv.Close, which waits for the held handler

	coord, err := NewCoordinator([]string{srv.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res     repro.CampaignResult
		emitted []int
		err     error
	}
	heads := make(chan repro.CampaignPoint, 1)
	done := make(chan outcome, 1)
	go func() {
		var emitted []int
		res, err := coord.Run(context.Background(), testSpecJSON, func(p repro.CampaignPoint) error {
			if len(emitted) == 0 {
				heads <- p
			}
			emitted = append(emitted, p.Index)
			return nil
		})
		done <- outcome{res, emitted, err}
	}()

	var head repro.CampaignPoint
	select {
	case head = <-heads:
	case <-time.After(10 * time.Second):
		t.Fatal("point 0 not emitted while the worker was held")
	}
	got, err := appendPoint(nil, head)
	if err != nil {
		t.Fatal(err)
	}
	want, err := appendPoint(nil, points[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !reflect.DeepEqual(head, points[0]) {
		t.Fatal("the coordinator's head differs from a local run's first point")
	}
	if n := coord.Stats().HeadPoints; n != 1 {
		t.Errorf("HeadPoints = %d, want 1", n)
	}

	open()
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	for i, idx := range o.emitted {
		if idx != i {
			t.Fatalf("emission %v is not exactly-once grid order", o.emitted)
		}
	}
	if len(o.emitted) != len(points) || !reflect.DeepEqual(o.res.Points, points) {
		t.Fatal("assembled points differ from reference")
	}
	if q := coord.Stats().Quarantines; q != 0 {
		t.Errorf("an honest worker was quarantined %d time(s)", q)
	}
}

// TestDivergentHeadQuarantinedAtOneReplica: with no replication, the
// owner of index 0 still answers a point the coordinator has already
// decided, and its frame is byte-compared. Both workers alter only
// index 0's frame; whichever owns it is quarantined, the other absorbs
// its shard, and the result is the local one.
func TestDivergentHeadQuarantinedAtOneReplica(t *testing.T) {
	points := evalPoints(t, testSpec(t))
	altered := func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			p := points[i]
			if i == 0 {
				p.TotalSeconds *= 2
			}
			send(p)
		}
	}
	a := fakeWorker(t, points, altered)
	defer a.Close()
	b := fakeWorker(t, points, altered)
	defer b.Close()

	coord, err := NewCoordinator([]string{a.URL, b.URL}, nil, nil)
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
	if len(emitted) != len(points) || !reflect.DeepEqual(res.Points, points) {
		t.Fatal("assembled points differ from reference")
	}
	st := coord.Stats()
	if st.Quarantines != 1 || st.HeadPoints != 1 {
		t.Fatalf("Quarantines = %d, HeadPoints = %d, want 1 and 1", st.Quarantines, st.HeadPoints)
	}
	for _, ms := range st.Members {
		if ms.Quarantined && !strings.Contains(ms.Reason, "replica mismatch: point 0 ") {
			t.Errorf("%s quarantined for %q, want a point-0 replica mismatch", ms.Target, ms.Reason)
		}
	}
}

// TestDeadFleetStreamsNothing: a fleet that refuses every connection
// writes no shard request, so a streamed run releases no head: it
// fails with *AllWorkersDownError before emitting anything, which is
// what lets the HTTP layer still answer 502.
func TestDeadFleetStreamsNothing(t *testing.T) {
	var targets []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.NotFoundHandler())
		targets = append(targets, srv.URL)
		srv.Close()
	}
	coord, err := NewCoordinator(targets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	_, err = coord.Run(context.Background(), testSpecJSON, func(repro.CampaignPoint) error {
		emitted++
		return nil
	})
	var down *AllWorkersDownError
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want *AllWorkersDownError", err)
	}
	if emitted != 0 {
		t.Errorf("a dead fleet emitted %d point(s) before failing", emitted)
	}
	if n := coord.Stats().HeadPoints; n != 0 {
		t.Errorf("HeadPoints = %d, want 0", n)
	}
}
