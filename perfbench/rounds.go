package main

// One round: launch a fresh fleet, warm it up, run the timed sequence
// over one keep-alive connection, read the daemons' counters and
// /proc stats before and after, probe the /livez floor, stop the fleet.

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// counts are the exact per-round counter deltas over the timed phase.
// A fixed sequence makes every one of them deterministic, so a round
// whose counts differ from its siblings' is flagged, not averaged.
type counts struct {
	SuiteMisses    int64 `json:"suite_misses"`
	SuiteHits      int64 `json:"suite_hits"`
	RenderHits     int64 `json:"render_hits"`
	RenderMisses   int64 `json:"render_misses"`
	CampaignPoints int64 `json:"campaign_points"`
	FabricRequests int64 `json:"fabric_requests"`
	// ProbeDeaths counts, since launch, workers the coordinator's health
	// prober marked dead; their arcs then move to the survivor, so a
	// healthy round has 0.
	ProbeDeaths int64 `json:"probe_deaths"`
	Requests    int64 `json:"requests"`
	Errors      int64 `json:"errors"`
}

// round is what one round measured.
type round struct {
	SetupS     float64   `json:"setup_s"`
	LatencyMS  []float64 `json:"-"`
	FirstMS    []float64 `json:"-"`
	BusyS      float64   `json:"busy_s"` // sum of timed-op latencies
	Points     int       `json:"points"` // grid points (or renderings) delivered
	Ops        int       `json:"ops"`
	Failed     int       `json:"failed"`
	Counts     counts    `json:"counts"`
	HandlerS   float64   `json:"handler_s"` // Δ request seconds on the front
	RSSMB      float64   `json:"rss_mb"`
	DaemonCPU  float64   `json:"daemon_cpu_s"`
	LoadgenCPU float64   `json:"loadgen_cpu_s"`
	ValidateS  float64   `json:"validate_s"`
	LivezUS    float64   `json:"livez_us"`
	// CalibUS times a fixed CPU-bound loop in the load generator just
	// before the timed phase: a reading of the host's speed that no code
	// under test affects.
	CalibUS    float64 `json:"calib_us"`
	Flagged    bool    `json:"flagged"`
	FirstError string  `json:"first_error,omitempty"`
}

// prepared is a sequence serialized for the wire, with its reference
// answers.
type prepared struct {
	warm, timed []preparedOp
	maxBody     int
}

type preparedOp struct {
	req    []byte
	want   expect
	points int
}

func prepare(seq sequence, ref map[string]expect) (prepared, error) {
	var p prepared
	conv := func(ops []op) ([]preparedOp, error) {
		out := make([]preparedOp, len(ops))
		for i, o := range ops {
			want, ok := ref[o.key()]
			if !ok {
				return nil, fmt.Errorf("no reference answer for %s", o.key())
			}
			etag := ""
			if o.Cond {
				etag = ref[o.plainKey()].ETag
			}
			pts := o.Points
			if pts == 0 {
				pts = 1 // an artefact op delivers one rendering
			}
			out[i] = preparedOp{req: request(o, etag), want: want, points: pts}
			if want.Len > p.maxBody {
				p.maxBody = want.Len
			}
		}
		return out, nil
	}
	var err error
	if p.warm, err = conv(seq.Warmup); err != nil {
		return p, err
	}
	p.timed, err = conv(seq.Timed)
	return p, err
}

func cpuSelf() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibBlock is what calibrate hashes.
var calibBlock = make([]byte, 64<<10)

// calibrate returns the microseconds 16 SHA-256 passes over calibBlock
// take.
func calibrate() float64 {
	start := time.Now()
	for i := 0; i < 16; i++ {
		sha256.Sum256(calibBlock)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// runRound executes one round.
func runRound(bin string, w workload, p prepared) (round, error) {
	var r round
	buf := make([]byte, 0, p.maxBody+4096)
	fail := func(err error) {
		r.Failed++
		if r.FirstError == "" {
			r.FirstError = err.Error()
		}
	}
	start := time.Now()
	fl, err := launchFleet(bin, w.fleet)
	if err != nil {
		return r, err
	}
	defer fl.stop()
	c, err := dial(fl.front.addr)
	if err != nil {
		return r, err
	}
	defer c.close()
	for _, o := range p.warm {
		rep, err := c.do(o.req, buf)
		if err == nil {
			err = check(rep, o.want)
		}
		if err != nil {
			fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	r.SetupS = time.Since(start).Seconds()

	runtime.GC()
	before, err := fl.settled()
	if err != nil {
		return r, err
	}
	r.CalibUS = calibrate()
	cpu0 := cpuSelf()
	for _, o := range p.timed {
		rep, err := c.do(o.req, buf)
		if err != nil {
			fail(err)
			continue
		}
		v0 := time.Now()
		if err := check(rep, o.want); err != nil {
			fail(err)
		}
		r.ValidateS += time.Since(v0).Seconds()
		buf = rep.body[:0]
		r.LatencyMS = append(r.LatencyMS, ms(rep.latency))
		r.FirstMS = append(r.FirstMS, ms(rep.first))
		r.BusyS += rep.latency.Seconds()
		r.Points += o.points
	}
	r.LoadgenCPU = (cpuSelf() - cpu0).Seconds()
	after, err := fl.settled()
	if err != nil {
		return r, err
	}
	r.Ops = len(p.timed)

	// The floor: /livez round trips on the same connection.
	livez := request(op{Method: "GET", Path: "/livez"}, "")
	var rtt []float64
	for i := 0; i < 200; i++ {
		rep, err := c.do(livez, buf)
		if err != nil {
			return r, fmt.Errorf("/livez: %w", err)
		}
		rtt = append(rtt, float64(rep.latency.Nanoseconds())/1e3)
	}
	r.LivezUS = median(rtt)

	d := func(series string) int64 { return int64(after.sum(series) - before.sum(series)) }
	r.Counts = counts{
		SuiteMisses:    d("sg2042d_engine_cache_misses_total"),
		SuiteHits:      d("sg2042d_engine_cache_hits_total"),
		RenderHits:     int64(after.front("sg2042d_render_cache_hits_total") - before.front("sg2042d_render_cache_hits_total")),
		RenderMisses:   int64(after.front("sg2042d_render_cache_misses_total") - before.front("sg2042d_render_cache_misses_total")),
		CampaignPoints: int64(after.front("sg2042d_campaign_points_total") - before.front("sg2042d_campaign_points_total")),
		FabricRequests: d(`sg2042d_requests_total{endpoint="fabric-points"}`),
		ProbeDeaths:    int64(after.front("sg2042d_fabric_probe_deaths_total")),
	}
	for series, v := range after.metrics[len(after.metrics)-1] {
		switch {
		case strings.HasPrefix(series, "sg2042d_requests_total{"):
			r.Counts.Requests += int64(v - before.front(series))
		case strings.HasPrefix(series, "sg2042d_request_errors_total{"):
			r.Counts.Errors += int64(v - before.front(series))
		case strings.HasPrefix(series, "sg2042d_request_seconds_total{"):
			r.HandlerS += v - before.front(series)
		}
	}
	end, err := fl.snapshot()
	if err != nil {
		return r, err
	}
	for i := range after.procs {
		r.DaemonCPU += (after.procs[i].cpu - before.procs[i].cpu).Seconds()
		r.RSSMB += end.procs[i].hwmMB
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// flagOutliers marks every round whose counts differ from the most
// common counts of the run, and returns how many it marked.
func flagOutliers(rs []round) int {
	freq := map[counts]int{}
	for _, r := range rs {
		freq[r.Counts]++
	}
	var mode counts
	best := 0
	for _, r := range rs { // first-seen order breaks ties deterministically
		if freq[r.Counts] > best {
			mode, best = r.Counts, freq[r.Counts]
		}
	}
	n := 0
	for i := range rs {
		if rs[i].Counts != mode {
			rs[i].Flagged = true
			n++
		}
	}
	return n
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
