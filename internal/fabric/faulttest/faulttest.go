// Package faulttest is the fault-injection harness behind the
// distributed determinism tests: a cluster of fabric workers on
// httptest servers, each serving the daemon's own handler
// (serve.New with Options.Worker, the handler sg2042d -worker mounts)
// behind a kill switch that can tear the connection, corrupt the
// stream, or silently tamper with a frame after a chosen number of
// frames. Tests arm a switch at a seeded-random frame, run a sharded
// campaign through a coordinator, and assert the output is
// byte-identical to a single-process run. Workers can also be killed
// and restarted on the same address — the self-healing tests' stand-in
// for a bounced process.
package faulttest

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro"
	"repro/internal/fabric"
	"repro/internal/serve"
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
	addr   string
}

// NewCluster starts n workers over the default machine registry. Each
// worker serves the daemon's full surface — fabric points, healthz,
// snapshot and warm included — with the kill switch acting only on the
// points stream, so health probes and snapshot shipping are never
// garbled by an armed fault.
func NewCluster(n int) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		node := &Node{ks: &killSwitch{}}
		if err := node.start("127.0.0.1:0"); err != nil {
			panic("faulttest: " + err.Error())
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

// start serves a fresh worker daemon on addr, behind the node's kill
// switch, and records the address it got.
func (n *Node) start(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := serve.New(serve.Options{Worker: true})
	n.Engine, n.addr = s.Engine(), l.Addr().String()
	n.srv = &httptest.Server{Listener: l, Config: &http.Server{Handler: n.ks.wrap(s.Handler())}}
	n.srv.Start()
	return nil
}

// Targets returns the workers' base URLs, in node order — the
// coordinator's worker list. URLs stay valid across Kill/Restart.
func (c *Cluster) Targets() []string {
	ts := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		ts[i] = "http://" + n.addr
	}
	return ts
}

// Node returns worker i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Len returns the worker count.
func (c *Cluster) Len() int { return len(c.nodes) }

// Arm makes worker i abort its connection (http.ErrAbortHandler)
// when it starts its frames-th frame, counted across all requests the
// worker has served — delivering strictly fewer than frames complete
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
func (c *Cluster) Restart(i int) error { return c.nodes[i].start(c.nodes[i].addr) }

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

// killSwitch sits in front of a worker daemon's handler, counting the
// frames its points streams write across requests and firing an armed
// fault when the count reaches the trigger.
type killSwitch struct {
	mu     sync.Mutex
	frames int // frames written in full, across requests
	armAt  int // 0 = disarmed; 1-based frame number otherwise
	mode   int
}

func (k *killSwitch) arm(frames, mode int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.armAt = frames
	k.mode = mode
}

// wrap puts the switch in front of the daemon handler h, on the points
// stream only.
func (k *killSwitch) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == fabric.PointsPath {
			w = &killWriter{ResponseWriter: w, ks: k}
		}
		h.ServeHTTP(w, r)
	})
}

// killWriter intercepts the worker's frame stream. The worker writes
// each frame as a length-prefix Write followed by a body Write and
// never flushes, so writes alternate prefix, body, prefix, ... and
// every body Write completes a frame. While a fault is pending the
// switch flushes each completed frame itself, so the frames before the
// fault reach the coordinator one at a time, ahead of it; once the
// fault has fired (or with none armed) frames batch in net/http's
// buffer as they do in sg2042d.
type killWriter struct {
	http.ResponseWriter
	ks *killSwitch
	// inFrame marks the next Write as a frame's body (after its prefix).
	inFrame bool
}

func (kw *killWriter) Write(p []byte) (int, error) {
	body := kw.inFrame
	kw.inFrame = !body
	k := kw.ks
	k.mu.Lock()
	pending := k.frames < k.armAt
	armed := pending && k.frames+1 == k.armAt
	mode := k.mode
	if body {
		k.frames++
	}
	k.mu.Unlock()
	switch {
	case armed && mode == modeAbort:
		// Tear the connection as the armed frame starts: the
		// coordinator sees a dead worker mid-stream, strictly short of
		// this frame's point.
		panic(http.ErrAbortHandler)
	case armed && mode == modeCorrupt && !body:
		// An all-0xFF over-long uvarint where the frame's length prefix
		// belongs: the coordinator's stream decoder must reject it
		// before ever treating the following bytes as a frame.
		p = bytes.Repeat([]byte{0xFF}, len(p))
	case armed && mode == modeTamper && body && len(p) > 0:
		// Flip the low bit of the frame's last byte — the top byte of
		// the last class cell's Ratio.Max float, so the frame still
		// parses and the length prefix still matches. The
		// silent-wrong-answer fault.
		p = append([]byte(nil), p...)
		p[len(p)-1] ^= 0x01
	}
	n, err := kw.ResponseWriter.Write(p)
	if body && pending && err == nil {
		err = http.NewResponseController(kw.ResponseWriter).Flush()
	}
	return n, err
}
