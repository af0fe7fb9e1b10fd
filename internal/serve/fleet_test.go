package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fabric/faulttest"
	"repro/internal/serve"
)

// TestReplicatedCampaignQuarantineInMetrics is the serving-tier face of
// the replica acceptance: a coordinator with Replicas: 2 over a fleet
// where one worker tampers a frame body still answers the exact local
// bytes, and /metrics reports the quarantine.
func TestReplicatedCampaignQuarantineInMetrics(t *testing.T) {
	local := httptest.NewServer(serve.New(serve.Options{Parallel: 4}).Handler())
	defer local.Close()

	cluster := faulttest.NewCluster(3)
	defer cluster.Close()
	cluster.Tamper(0, 1)
	coord := httptest.NewServer(serve.New(serve.Options{Coordinate: cluster.Targets(), Replicas: 2}).Handler())
	defer coord.Close()

	_, _, want := serve.PostCampaign(t, local, "", serve.CampaignBody, "")
	status, _, got := serve.PostCampaign(t, coord, "", serve.CampaignBody, "")
	if status != http.StatusOK {
		t.Fatalf("status %d with a tampering worker under replication: %s", status, got)
	}
	if got != want {
		t.Error("replicated body differs from single-process body despite quorum")
	}

	body := serve.GetMetricsBody(t, coord)
	if !strings.Contains(body, "sg2042d_fabric_quarantines_total 1") {
		t.Errorf("metrics lack the quarantine counter:\n%s", serve.GrepMetrics(body, "quarantine"))
	}
	gauge := `sg2042d_fabric_worker_quarantined{target="` + cluster.Targets()[0] + `"} 1`
	if !strings.Contains(body, gauge) {
		t.Errorf("metrics lack %s:\n%s", gauge, serve.GrepMetrics(body, "quarantined"))
	}
}
