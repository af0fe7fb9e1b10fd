package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, a cancel function, and a channel carrying the exit code.
func startDaemon(t *testing.T, args ...string) (string, context.CancelFunc, <-chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errOut strings.Builder
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errOut, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, done
	case code := <-done:
		cancel()
		t.Fatalf("daemon exited immediately with code %d; stderr: %s", code, errOut.String())
		return "", cancel, done
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon did not come up")
		return "", cancel, done
	}
}

// TestServeAndGracefulShutdown is the daemon's end-to-end smoke test
// (make serve): come up on an ephemeral port, answer an experiment
// request with the same bytes the library renders, answer Table 4 the
// way examples/serveclient asks for it — CSV by content negotiation —
// then drain cleanly on cancellation.
func TestServeAndGracefulShutdown(t *testing.T) {
	url, cancel, done := startDaemon(t, "-parallel", "4")
	defer cancel()

	resp, err := http.Get(url + "/v1/experiments/table4")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want, err := repro.RunExperiment("table4")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("status %d, body %q, want the library's %q", resp.StatusCode, body, want)
	}

	req, err := http.NewRequest(http.MethodGet, url+"/v1/experiments/table4", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantCSV, err := repro.RunExperimentCSV("table4")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(csv) != wantCSV {
		t.Fatalf("Accept: text/csv: status %d, Content-Type %q, body %q, want the library's %q",
			resp.StatusCode, resp.Header.Get("Content-Type"), csv, wantCSV)
	}

	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

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

// TestPrewarmReadiness: with -prewarm the daemon eventually reports
// ready on /healthz, /livez answers throughout, and a corpus request
// after readiness is served (from the warmed cache).
func TestPrewarmReadiness(t *testing.T) {
	url, cancel, done := startDaemon(t, "-parallel", "4", "-prewarm")
	defer cancel()

	status := func(path string) int {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if got := status("/livez"); got != http.StatusOK {
		t.Fatalf("livez during warm: status %d", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for status("/healthz") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := status("/v1/experiments/figure1?format=binary"); got != http.StatusOK {
		t.Fatalf("warmed corpus request: status %d", got)
	}

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

// TestShutdownClosesSilentConnections: a connection that has sent no
// request (a client's spare, as a coordinator keeps to its workers)
// does not hold a graceful shutdown to its 5 s deadline.
func TestShutdownClosesSilentConnections(t *testing.T) {
	url, cancel, done := startDaemon(t)
	defer cancel()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The daemon accepts connections in order, so once a later one is
	// served the silent one is accepted too.
	resp, err := http.Get(url + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	stopDaemon(t, cancel, done)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("shutdown took %s with a silent connection open", d)
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-h"}, &out, &errOut, nil); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}

	errOut.Reset()
	if code := run(context.Background(), []string{"-nope"}, &out, &errOut, nil); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "flag") {
		t.Errorf("unknown flag: no usage on stderr: %q", errOut.String())
	}

	errOut.Reset()
	if code := run(context.Background(), []string{"positional"}, &out, &errOut, nil); code != 2 {
		t.Errorf("positional argument: exit %d, want 2", code)
	}

	errOut.Reset()
	if code := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, &out, &errOut, nil); code != 1 {
		t.Errorf("unlistenable address: exit %d, want 1", code)
	}
}
