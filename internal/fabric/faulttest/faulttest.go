// Package faulttest is the fault-injection harness behind the
// distributed determinism tests: a cluster of real fabric workers on
// httptest servers, each wrapped in a kill switch that can tear the
// connection, corrupt the stream, or silently tamper with a frame
// after a chosen number of frames. Tests arm a switch at a
// seeded-random frame, run a sharded campaign through a coordinator,
// and assert the output is byte-identical to a single-process run.
// Workers can also be killed and restarted on the same address — the
// self-healing tests' stand-in for a bounced process.
package faulttest

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro"
	"repro/internal/fabric"
)

// Cluster is a set of fabric workers, each with its own engine (its
// own suite cache — separate processes in miniature) and its own kill
// switch.
type Cluster struct {
	nodes []*Node
}

// Node is one worker of a Cluster.
type Node struct {
	// Engine is the node's engine; tests reach it to pre-restore
	// snapshots or read cache counters. Restart replaces it — a
	// bounced process starts with a cold cache.
	Engine *repro.Engine
	srv    *httptest.Server
	ks     *killSwitch
	url    string
	addr   string
}

// NewCluster starts n workers over the default machine registry. Each
// worker serves the full fabric surface — points, healthz, snapshot,
// warm — with the kill switch wrapping only the points stream, so
// health probes and snapshot shipping are never garbled by an armed
// fault.
func NewCluster(n int) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		node := &Node{ks: &killSwitch{}}
		node.srv = httptest.NewServer(node.buildHandler())
		node.url = node.srv.URL
		node.addr = node.srv.Listener.Addr().String()
		c.nodes = append(c.nodes, node)
	}
	return c
}

// buildHandler gives the node a fresh engine and worker and returns
// the mux serving them (kill switch on the points path only).
func (n *Node) buildHandler() http.Handler {
	n.Engine = repro.NewEngine(repro.Options{})
	wk := fabric.NewWorker(n.Engine)
	mux := http.NewServeMux()
	mux.Handle(fabric.PointsPath, n.ks.wrap(wk))
	mux.HandleFunc(fabric.HealthPath, wk.ServeHealth)
	mux.HandleFunc(fabric.SnapshotPath, wk.ServeSnapshot)
	mux.HandleFunc(fabric.WarmPath, wk.ServeWarm)
	return mux
}

// Targets returns the workers' base URLs, in node order — the
// coordinator's worker list. URLs stay valid across Kill/Restart.
func (c *Cluster) Targets() []string {
	ts := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		ts[i] = n.url
	}
	return ts
}

// Node returns worker i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Len returns the worker count.
func (c *Cluster) Len() int { return len(c.nodes) }

// Arm makes worker i abort its connection (http.ErrAbortHandler)
// when it flushes its frames-th frame, counted across all requests the
// worker has served — delivering strictly fewer than `frames` complete
// points before dying mid-stream. frames is 1-based: Arm(i, 1) kills
// the worker at its very first frame.
func (c *Cluster) Arm(i, frames int) { c.nodes[i].ks.arm(frames, modeAbort) }

// Corrupt makes worker i garble the length prefix of its frames-th
// frame (again counted across requests, 1-based) instead of dying: the
// bytes keep flowing but the coordinator's stream decoder must reject
// the frame and re-dispatch the worker's outstanding points.
func (c *Cluster) Corrupt(i, frames int) { c.nodes[i].ks.arm(frames, modeCorrupt) }

// Tamper makes worker i flip one bit inside the BODY of its frames-th
// frame (1-based, counted across requests): the frame stays
// well-formed and decodes cleanly, but carries a wrong value. A
// non-replicated coordinator cannot see this fault; the replica
// cross-check must.
func (c *Cluster) Tamper(i, frames int) { c.nodes[i].ks.arm(frames, modeTamper) }

// Kill shuts worker i's server down immediately — connection refused
// from now on, in-flight requests torn. The node remembers its address
// so Restart can bring a fresh process up in its place.
func (c *Cluster) Kill(i int) {
	n := c.nodes[i]
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.srv = nil
}

// Restart brings a killed worker back on its old address with a fresh
// engine (a bounced process keeps nothing in memory — warmth, if any,
// must be shipped to it). The kill switch carries over, disarmed or
// not, and keeps counting frames where it left off.
func (c *Cluster) Restart(i int) error {
	n := c.nodes[i]
	l, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	srv := &httptest.Server{
		Listener: l,
		Config:   &http.Server{Handler: n.buildHandler()},
	}
	srv.Start()
	n.srv = srv
	return nil
}

// Frames reports how many frames worker i has flushed in total
// (cumulative across restarts).
func (c *Cluster) Frames(i int) int { return c.nodes[i].ks.frames() }

// Close shuts every worker down.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
	}
}

// Fault modes a killSwitch can arm.
const (
	modeAbort   = iota // tear the connection at the armed frame
	modeCorrupt        // garble the armed frame's length prefix
	modeTamper         // flip a bit in the armed frame's body
)

// killSwitch wraps a worker handler, counting flushed frames across
// requests and firing an armed fault when the count reaches the
// trigger.
type killSwitch struct {
	mu      sync.Mutex
	flushes int
	armAt   int // 0 = disarmed; 1-based frame number otherwise
	mode    int
}

func (k *killSwitch) arm(frames, mode int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.armAt = frames
	k.mode = mode
}

func (k *killSwitch) frames() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.flushes
}

func (k *killSwitch) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&killWriter{ResponseWriter: w, ks: k, frameStart: true}, r)
	})
}

// killWriter intercepts the worker's frame stream. The worker writes
// one frame as a length-prefix Write followed by a body Write, then
// flushes once — so the flush count is the delivered-frame count, the
// first Write after a flush is the next frame's length prefix, and the
// Write after that is its body.
type killWriter struct {
	http.ResponseWriter
	ks *killSwitch
	// frameStart marks the next Write as a frame's length prefix.
	frameStart bool
}

func (kw *killWriter) Write(p []byte) (int, error) {
	k := kw.ks
	k.mu.Lock()
	atArmed := k.armAt > 0 && k.flushes+1 == k.armAt
	garble := atArmed && k.mode == modeCorrupt && kw.frameStart
	tamper := atArmed && k.mode == modeTamper && !kw.frameStart
	k.mu.Unlock()
	kw.frameStart = false
	if garble {
		// An all-0xFF over-long uvarint where the frame's length prefix
		// belongs: the coordinator's stream decoder must reject it
		// before ever treating the following bytes as a frame.
		bad := make([]byte, len(p))
		for i := range bad {
			bad[i] = 0xFF
		}
		return kw.ResponseWriter.Write(bad)
	}
	if tamper && len(p) > 0 {
		// Flip the low bit of the frame's last byte — the top byte of
		// the last class cell's Ratio.Max float, so the frame still
		// parses and the length prefix still matches. The
		// silent-wrong-answer fault.
		bad := append([]byte(nil), p...)
		bad[len(bad)-1] ^= 0x01
		return kw.ResponseWriter.Write(bad)
	}
	return kw.ResponseWriter.Write(p)
}

func (kw *killWriter) Flush() {
	k := kw.ks
	k.mu.Lock()
	die := k.armAt > 0 && k.mode == modeAbort && k.flushes+1 == k.armAt
	if !die {
		k.flushes++
	}
	k.mu.Unlock()
	if die {
		// Tear the connection before the armed frame leaves the
		// server's buffer: the coordinator sees a dead worker
		// mid-stream, strictly short of this frame's point.
		panic(http.ErrAbortHandler)
	}
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	kw.frameStart = true
}
