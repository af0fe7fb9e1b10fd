package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/serve"
)

// TestDaemonHeadPanicIsInternalError: a panic while evaluating a
// streamed grid's head reaches the client as a 500 "internal error"
// before any point byte — the head is evaluated before the first line
// can be written — and counts in sg2042d_panics_total. The fault is a
// study without a model, whose first suite evaluation (the head's, on
// the request goroutine of a 4-worker engine) dereferences it.
func TestDaemonHeadPanicIsInternalError(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	s := serve.New(serve.Options{Parallel: 4})
	repro.StudyOf(s.Engine()).Model = nil
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"machines": ["SG2042"], "axes": [{"axis": "clock", "values": [1.5, 2.5, 3.5]}], "threads": [0, 32]}`
	resp, err := http.Post(ts.URL+"/v1/campaign?format=ndjson", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, got)
	}
	// One JSON object and nothing after it: Unmarshal rejects
	// trailing point lines.
	var answer struct{ Error string }
	if err := json.Unmarshal(got, &answer); err != nil || answer.Error != "internal error" {
		t.Errorf("body %q (%v), want only an internal error", got, err)
	}
	// The logged stack runs through the handler: the head panicked on
	// the request goroutine, not in the pool.
	if l := logged.String(); !strings.Contains(l, "nil pointer dereference") || !strings.Contains(l, "serve.(*Server).streamCampaign(") {
		t.Errorf("log lacks the head's panic on the request goroutine:\n%s", l)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\nsg2042d_panics_total 1\n") {
		t.Errorf("metrics lack the counted panic:\n%s", metrics)
	}
}
