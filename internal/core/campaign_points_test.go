package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestCampaignPointsMatchFullCampaign: a point evaluated through the
// shard-scoped API is bit-identical to the same point of a full
// campaign — the foundation of the distributed determinism contract.
func TestCampaignPointsMatchFullCampaign(t *testing.T) {
	spec := smallCampaign()
	full, err := NewStudy().Campaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Split the grid in two interleaved shards evaluated on separate
	// studies (separate caches, like separate worker processes).
	var shardA, shardB []int
	for i := range full.Points {
		if i%2 == 0 {
			shardA = append(shardA, i)
		} else {
			shardB = append(shardB, i)
		}
	}
	points := make([]CampaignPoint, len(full.Points))
	for _, shard := range [][]int{shardA, shardB} {
		st := NewStudy()
		if err := st.CampaignPoints(spec, shard, func(p CampaignPoint) error {
			points[p.Index] = p
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range points {
		if !reflect.DeepEqual(points[i], full.Points[i]) {
			t.Fatalf("point %d differs between sharded and full evaluation", i)
		}
	}

	// Assembling the sharded points reproduces the full result exactly,
	// ranked summaries included.
	res, err := AssembleCampaign(spec, points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("assembled campaign differs from directly-evaluated campaign")
	}
}

// TestCampaignPointsEmitsEachOnce: emit fires exactly once per
// requested index, in request order, even under parallel evaluation.
func TestCampaignPointsEmitsEachOnce(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy().WithWorkers(8)
	indices := []int{3, 0, 7, 12, 5}
	var got []int
	if err := st.CampaignPoints(spec, indices, func(p CampaignPoint) error {
		got = append(got, p.Index) // emit runs on this goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, indices) {
		t.Fatalf("emitted indices %v, want %v", got, indices)
	}
}

// TestCampaignPointsEmitPanicReachesCaller: a panic in emit unwinds the
// caller's goroutine, where it can be recovered (as net/http recovers
// ErrAbortHandler), and leaves no evaluation blocked behind it.
func TestCampaignPointsEmitPanicReachesCaller(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy().WithWorkers(4)
	indices := make([]int, spec.Points())
	for i := range indices {
		indices[i] = i
	}
	const sentinel = "emit panicked on purpose"
	func() {
		defer func() {
			if r := recover(); r != sentinel {
				t.Fatalf("recovered %v, want %q", r, sentinel)
			}
		}()
		calls := 0
		st.CampaignPoints(spec, indices, func(CampaignPoint) error {
			if calls++; calls == 2 {
				panic(sentinel)
			}
			return nil
		})
	}()
	n := 0
	if err := st.CampaignPoints(spec, indices, func(CampaignPoint) error { n++; return nil }); err != nil || n != len(indices) {
		t.Fatalf("campaign after a recovered panic: %d points, err %v", n, err)
	}
}

func TestCampaignPointsRejectsBadIndices(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy()
	for _, tc := range []struct {
		name    string
		indices []int
		want    string
	}{
		{"negative", []int{-1}, "out of range"},
		{"past end", []int{16}, "out of range"},
		{"duplicate", []int{2, 2}, "twice"},
	} {
		err := st.CampaignPoints(spec, tc.indices, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCampaignPointsEmitErrorAborts: an emit error stops the run and
// surfaces as-is.
func TestCampaignPointsEmitErrorAborts(t *testing.T) {
	spec := smallCampaign()
	st := NewStudy().WithWorkers(4)
	indices := make([]int, spec.Points())
	for i := range indices {
		indices[i] = i
	}
	wantErr := "emit failed on purpose"
	calls := 0
	err := st.CampaignPoints(spec, indices, func(CampaignPoint) error {
		calls++
		if calls == 3 {
			return errTest(wantErr)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("err = %v, want %q", err, wantErr)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestAssembleCampaignValidates(t *testing.T) {
	spec := smallCampaign()
	full, err := NewStudy().Campaign(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleCampaign(spec, full.Points[:4]); err == nil {
		t.Error("assembled a partial grid without error")
	}
	shuffled := append([]CampaignPoint(nil), full.Points...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	if _, err := AssembleCampaign(spec, shuffled); err == nil {
		t.Error("assembled out-of-order points without error")
	}
	if _, err := AssembleCampaign(CampaignSpec{}, nil); err == nil {
		t.Error("assembled an invalid spec without error")
	}
}

// TestCampaignFingerprints: one fingerprint per grid point, aligned
// with expansion order, and equal for points sharing a machine variant
// (the property consistent-hash sharding keys on).
func TestCampaignFingerprints(t *testing.T) {
	spec := smallCampaign()
	fps, err := spec.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != spec.Points() {
		t.Fatalf("%d fingerprints for %d points", len(fps), spec.Points())
	}
	// Points 0 and 1 differ only in threads — same machine variant, so
	// the same fingerprint; point 2 is a different NUMA variant.
	if fps[0] != fps[1] {
		t.Error("same machine variant hashed to different fingerprints")
	}
	if fps[0] == fps[2] {
		t.Error("different machine variants hashed to the same fingerprint")
	}
	if _, err := (CampaignSpec{}).Fingerprints(); err == nil {
		t.Error("Fingerprints of an invalid spec did not error")
	}
}
