package main

// Daemon processes under test. Each round launches a fresh fleet — one
// sg2042d, or a -coordinate daemon over two -worker daemons — so every
// round starts from the same empty caches, and stops it afterwards.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running sg2042d.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	stderr  bytes.Buffer
	drained chan struct{} // closed once stdout hits EOF
}

// workerAddrs are the fabric workers' fixed listen addresses. The
// coordinator's consistent-hash ring hashes the worker URLs, so with
// kernel-chosen ports every round built a different ring: one worker
// owned anywhere from about half to nearly all of a campaign's machines,
// which moved latency and fabric request counts from round to round.
// Fixed ports give every round, the traced replay and the generator
// (splitClock) the same ring. They lie below Linux's default ephemeral
// range (32768-60999), so no outgoing connection of this or any other
// process is given one of them as its local port. This pair's ring
// splits the two workers' shares of the derived machines about evenly,
// and more than half of the clock values split (genCampaignCold needs
// 448).
var workerAddrs = [2]string{"127.0.0.1:24439", "127.0.0.1:24440"}

// portWait bounds how long listenFixed waits for a fixed address that
// is in use.
const portWait = 30 * time.Second

// listenFixed listens on a fixed address, retrying while it is in use,
// as it can be for a moment after the previous round's worker exits.
func listenFixed(addr string) (net.Listener, error) {
	deadline := time.Now().Add(portWait)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) || time.Now().After(deadline) {
			return ln, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// startDaemon launches bin with args plus -addr addr -prewarm and
// returns once the daemon has bound its port and finished prewarming
// (it prints both on stdout) and /healthz answers 200. A fixed addr is
// waited for until it is free.
func startDaemon(bin, addr string, args ...string) (*daemon, error) {
	if !strings.HasSuffix(addr, ":0") {
		ln, err := listenFixed(addr)
		if err != nil {
			return nil, err
		}
		ln.Close()
	}
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-prewarm"}, args...)...)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "sg2042d: serving on http://"); ok {
				d.addr = a
			}
			if strings.HasPrefix(line, "sg2042d: prewarmed ") && !signalled {
				signalled = true
				ready <- nil
			}
		}
		if !signalled {
			ready <- fmt.Errorf("sg2042d exited before it was ready")
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case err = <-ready:
	case <-time.After(60 * time.Second):
		err = fmt.Errorf("sg2042d not ready after 60s")
	}
	if err == nil {
		var status int
		status, _, err = get(d.addr, "/healthz")
		if err == nil && status != 200 {
			err = fmt.Errorf("/healthz answered %d after prewarm", status)
		}
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return d, nil
}

// stop sends SIGTERM (a graceful shutdown), kills after ten seconds,
// and waits for the process to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	d.cmd.Wait()
}

// procStat is a daemon's CPU time and peak resident set.
type procStat struct {
	cpu   time.Duration // utime + stime, all threads
	hwmMB float64       // VmHWM
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procStat, error) {
	var ps procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	ps.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return ps, err
			}
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// fleet is the set of daemons one round talks to.
type fleet struct {
	front   *daemon   // the daemon the client drives
	members []*daemon // every daemon, workers first, front last
}

// launchFleet starts a single daemon, or — for a fabric workload — two
// workers and then a coordinator over them, one after another so their
// prewarm passes do not contend for the two cores.
func launchFleet(bin string, fabric bool) (*fleet, error) {
	f := &fleet{}
	if fabric {
		var targets []string
		for _, addr := range workerAddrs {
			w, err := startDaemon(bin, addr, "-worker")
			if err != nil {
				f.stop()
				return nil, fmt.Errorf("worker on %s: %w", addr, err)
			}
			f.members = append(f.members, w)
			targets = append(targets, "http://"+w.addr)
		}
		c, err := startDaemon(bin, "127.0.0.1:0", "-coordinate", strings.Join(targets, ","))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		f.members = append(f.members, c)
		f.front = c
		return f, nil
	}
	d, err := startDaemon(bin, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.members = []*daemon{d}
	f.front = d
	return f, nil
}

// stop stops the coordinator first, then the workers.
func (f *fleet) stop() {
	for i := len(f.members) - 1; i >= 0; i-- {
		f.members[i].stop()
	}
}

// snapshot is the counters and process stats of every member.
type snapshot struct {
	metrics []map[string]float64
	procs   []procStat
}

// settleGap separates the snapshots settled compares. It spans two Go
// scheduler time slices: with four processes on two cores, a worker's
// handler goroutine was seen to finish more than 5 ms after the
// coordinator answered.
const settleGap = 25 * time.Millisecond

// settled takes snapshots until two in a row agree on every member's
// request count. A worker records a fabric request only after its
// handler returns, which can be just after the coordinator has answered
// the client; without settling, a round's counts would depend on that
// race.
func (f *fleet) settled() (snapshot, error) {
	prev, err := f.snapshot()
	for i := 0; err == nil && i < 100; i++ {
		time.Sleep(settleGap)
		var cur snapshot
		if cur, err = f.snapshot(); err != nil {
			break
		}
		if cur.requests() == prev.requests() {
			return cur, nil
		}
		prev = cur
	}
	if err == nil {
		err = fmt.Errorf("request counters did not settle")
	}
	return prev, err
}

// requests sums every member's request counters.
func (s snapshot) requests() float64 {
	t := 0.0
	for _, m := range s.metrics {
		for series, v := range m {
			if strings.HasPrefix(series, "sg2042d_requests_total{") {
				t += v
			}
		}
	}
	return t
}

func (f *fleet) snapshot() (snapshot, error) {
	var s snapshot
	for _, d := range f.members {
		status, body, err := get(d.addr, "/metrics")
		if err != nil {
			return s, err
		}
		if status != 200 {
			return s, fmt.Errorf("/metrics answered %d", status)
		}
		ps, err := readProc(d.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.metrics = append(s.metrics, parseMetrics(body))
		s.procs = append(s.procs, ps)
	}
	return s, nil
}

// sum adds one series over every member.
func (s snapshot) sum(series string) float64 {
	t := 0.0
	for _, m := range s.metrics {
		t += m[series]
	}
	return t
}

// front reads one series from the front daemon (the last member).
func (s snapshot) front(series string) float64 {
	return s.metrics[len(s.metrics)-1][series]
}
