// Command sg2042d serves the study engine over HTTP: the paper's
// tables and figures as cacheable network resources, plus the roofline
// and cluster models, backed by one shared memoized engine so repeated
// and concurrent requests never recompute a configuration.
//
// Usage:
//
//	sg2042d                         # serve on :8042, GOMAXPROCS workers
//	sg2042d -addr 127.0.0.1:9000    # bind elsewhere
//	sg2042d -parallel 8             # engine worker bound (same bytes)
//	sg2042d -prewarm                # render the full corpus before ready
//	sg2042d -worker                 # also serve the fabric shard API
//	sg2042d -coordinate http://w1:8042,http://w2:8042
//	                                # shard /v1/campaign over a worker fleet
//	sg2042d -coordinate ... -replicas 2
//	                                # cross-check each shard on 2 workers
//	sg2042d -coordinate ... -probe-interval 500ms
//	                                # faster worker death/rejoin detection
//	sg2042d -restore cache.snap     # boot with a warm suite cache
//	sg2042d -snapshot cache.snap    # write the cache on graceful shutdown
//
// Endpoints:
//
//	GET  /v1/experiments            experiment metadata (JSON)
//	GET  /v1/experiments/{name}     text; ?format=csv|json or Accept
//	POST /v1/experiments:batch      {"names": ["figure1", ...], "format": "csv"}
//	GET  /v1/machines               the machine registry (JSON)
//	GET  /v1/machines/{name}        one machine's full JSON spec
//	POST /v1/sweep                  what-if hardware sweep
//	POST /v1/campaign               multi-axis campaign; ?format=ndjson streams
//	GET  /v1/roofline/{machine}     ?prec=f32|f64
//	GET  /v1/cluster/{machine}      ?net=ib|eth&grid=512&nodes=1,2,4
//	GET  /metrics                   Prometheus text metrics
//	GET  /healthz                   readiness probe (503 while prewarming)
//	GET  /livez                     liveness probe
//
// With -prewarm the daemon renders the full preset corpus (every
// experiment x format, and every registry machine's roofline and
// cluster reports) into the response cache at boot; /healthz answers
// 503 until the pass completes, so a load balancer only routes to a
// warm instance. The listener is up throughout, and /livez answers 200.
//
// Distributed campaigns: -worker additionally mounts the fabric's
// shard-scoped endpoints (points, healthz, snapshot, warm); -coordinate
// runs POST /v1/campaign through a coordinator that shards the grid
// over the listed workers, byte-identical to a single process and
// resilient to worker loss (README has a quickstart). The coordinator
// health-probes every worker (-probe-interval/-probe-timeout/
// -probe-backoff): a dead worker leaves the ring, a recovered one
// rejoins mid-campaign, and the coordinator relays it each live peer's
// snapshot of its keys (GET snapshot, POST warm) — no coordinator
// restart. A worker only answers requests; it dials nothing. -replicas N cross-checks each shard on N
// workers, byte-comparing frames and quarantining any worker whose
// bytes diverge from quorum (visible in /metrics). -restore loads a
// suite-cache snapshot at boot — a restarted worker answers its shard
// from cache — and -snapshot writes one on graceful shutdown; the
// format is documented in docs/PERFORMANCE.md.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to five seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the daemon body, extracted from main so tests can drive it
// with a cancellable context and captured streams. It returns the
// process exit code. ready, when non-nil, receives the bound address
// once the listener is up (tests use it to learn an ephemeral port).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("sg2042d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8042", "address to listen on")
	parallel := fs.Int("parallel", 0, "worker pool size for the study engine (0 = GOMAXPROCS, 1 = serial); responses are identical for every setting")
	prewarm := fs.Bool("prewarm", false, "render the preset corpus at boot; /healthz stays 503 until it completes")
	worker := fs.Bool("worker", false, "serve the fabric shard API (POST /v1/fabric/points) beside the ordinary surface")
	coordinate := fs.String("coordinate", "", "comma-separated worker base URLs; campaigns shard over them instead of evaluating locally")
	replicas := fs.Int("replicas", 1, "dispatch each campaign shard to the N workers with the highest rendezvous score for its key and byte-compare their frames; divergent workers are quarantined (1 = no replication; needs -coordinate)")
	probeInterval := fs.Duration("probe-interval", fabric.DefaultProbeInterval, "how often the coordinator health-probes each worker (needs -coordinate)")
	probeTimeout := fs.Duration("probe-timeout", fabric.DefaultProbeTimeout, "per-probe timeout before a worker counts as failed")
	probeBackoff := fs.Duration("probe-backoff", fabric.DefaultProbeBackoff, "cap on the probe delay to a dead worker (doubles from -probe-interval up to this)")
	restorePath := fs.String("restore", "", "suite-cache snapshot to load at boot (boot fails if it does not decode)")
	snapshotPath := fs.String("snapshot", "", "write a suite-cache snapshot here on graceful shutdown")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sg2042d: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	var targets []string
	if *coordinate != "" {
		if *worker {
			fmt.Fprintln(stderr, "sg2042d: -worker and -coordinate are mutually exclusive (a coordinator fronts workers, it is not one)")
			return 2
		}
		for _, t := range strings.Split(*coordinate, ",") {
			targets = append(targets, strings.TrimSpace(t))
		}
		// Fail a bad fleet list at boot, not on the first campaign.
		if _, err := fabric.NewCoordinator(targets, nil, nil); err != nil {
			fmt.Fprintln(stderr, "sg2042d:", err)
			return 2
		}
	}
	if *replicas < 1 {
		fmt.Fprintln(stderr, "sg2042d: -replicas must be at least 1")
		return 2
	}
	if *replicas > 1 && *coordinate == "" {
		fmt.Fprintln(stderr, "sg2042d: -replicas needs -coordinate (replication is a coordinator feature)")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sg2042d:", err)
		return 1
	}
	s := serve.New(serve.Options{
		Parallel:   *parallel,
		Prewarm:    *prewarm,
		Worker:     *worker,
		Coordinate: targets,
		Replicas:   *replicas,
	})
	// Health probing makes a coordinator's fleet self-healing: a worker
	// that dies leaves the ring, one that recovers rejoins it
	// (snapshot-warmed from its peers) — all without a coordinator
	// restart. Every return below stops the prober and waits for its
	// loops, so the daemon never exits with a probe in flight.
	probeCtx, stopProbing := context.WithCancel(ctx)
	waitProbing := s.StartFabricProber(probeCtx, fabric.ProbeConfig{
		Interval: *probeInterval,
		Timeout:  *probeTimeout,
		Backoff:  *probeBackoff,
	})
	defer func() {
		stopProbing()
		waitProbing()
	}()
	if *restorePath != "" {
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			fmt.Fprintln(stderr, "sg2042d: restore:", err)
			ln.Close()
			return 1
		}
		n, err := s.Engine().RestoreCache(data)
		if err != nil {
			// A snapshot that does not decode must fail the boot loudly —
			// never serve cold pretending to be warm, never install a
			// partial cache.
			fmt.Fprintln(stderr, "sg2042d: restore:", err)
			ln.Close()
			return 1
		}
		fmt.Fprintf(stdout, "sg2042d: restored %d cache entries from %s\n", n, *restorePath)
	}
	srv := &http.Server{
		Handler: s.Handler(),
		// A network-facing daemon must not let slow or stalled clients
		// hold connections open indefinitely (and with them, graceful
		// shutdown). Handlers themselves answer in milliseconds.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Shutdown counts a connection that has sent no request yet as
	// active for 5 s, and a coordinator keeps such spares to its workers:
	// on shutdown each gets 250 ms to start one (the deadline can fail
	// only on a connection already closed).
	var fresh sync.Map // net.Conn -> struct{}
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		if fresh.Delete(c); st == http.StateNew {
			fresh.Store(c, struct{}{})
		}
	}
	srv.RegisterOnShutdown(func() {
		fresh.Range(func(c, _ any) bool {
			_ = c.(net.Conn).SetReadDeadline(time.Now().Add(250 * time.Millisecond))
			return true
		})
	})

	fmt.Fprintf(stdout, "sg2042d: serving on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	if *prewarm {
		// Warm while the listener is already up: /livez answers, /healthz
		// returns 503 until the corpus is in the cache. A failed or
		// cancelled pass is fatal — an instance that can't render its
		// corpus shouldn't take traffic.
		start := time.Now()
		n, err := s.Prewarm(ctx)
		if err != nil {
			if ctx.Err() != nil { // interrupted mid-warm: a normal shutdown
				fmt.Fprintln(stdout, "sg2042d: shutting down")
				srv.Close()
				return 0
			}
			fmt.Fprintln(stderr, "sg2042d: prewarm:", err)
			srv.Close()
			return 1
		}
		fmt.Fprintf(stdout, "sg2042d: prewarmed %d renderings in %s\n", n, time.Since(start).Round(time.Millisecond))
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "sg2042d:", err)
			return 1
		}
	case <-ctx.Done():
		fmt.Fprintln(stdout, "sg2042d: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(stderr, "sg2042d: shutdown:", err)
			return 1
		}
		if *snapshotPath != "" {
			// In-flight requests have drained, so the cache is quiescent:
			// the snapshot is complete and the next boot's -restore makes
			// every configuration this life evaluated a cache hit.
			if err := writeSnapshot(s, *snapshotPath, stdout); err != nil {
				fmt.Fprintln(stderr, "sg2042d: snapshot:", err)
				return 1
			}
		}
	}
	return 0
}

// writeSnapshot serializes the engine's suite cache to path.
func writeSnapshot(s *serve.Server, path string, stdout io.Writer) error {
	data, err := s.Engine().SnapshotCache()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sg2042d: snapshot: wrote %d bytes to %s\n", len(data), path)
	return nil
}
