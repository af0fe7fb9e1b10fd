package main

// The in-process replays. They run in a child process of the benchmark
// (so each starts with the program's package-level caches empty, as a
// fresh daemon does) and call the layers' public functions directly:
//
//   - ref: answers every distinct request of the sequence through an
//     in-process serve.New handler; the answers are the reference every
//     daemon response is byte-compared against.
//   - trace: replays the sequence and records a span around each call
//     into a layer — serve.Server.ServeHTTP, repro.CampaignSpecFromJSON,
//     repro.Engine.CampaignStream (and its first emit),
//     repro.FormatCampaignResult + repro.CampaignResultWire,
//     repro.DecodeWire, fabric.Coordinator.Run over two in-process
//     workers (with a span per worker request), machine derivations and
//     perfmodel suite plans. Spans stay in memory and are written out
//     at the end.
//   - notrace: the same replay with span recording off; its per-op
//     times against trace's give the tracing overhead.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autovec"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/suite"
)

// childOut is what a child prints on stdout.
type childOut struct {
	Expect map[string]expect  `json:"expect,omitempty"`
	OpUS   []float64          `json:"op_us,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

func newRequest(o op, etag string) *http.Request {
	req := httptest.NewRequest(o.Method, o.Path, strings.NewReader(o.Body))
	if o.Accept != "" {
		req.Header.Set("Accept", o.Accept)
	}
	if o.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if o.Cond {
		req.Header.Set("If-None-Match", etag)
	}
	if o.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// newServer is the in-process counterpart of the round's daemon: a
// local server, prewarmed for artefact-read as sg2042d -prewarm is.
func newServer(w workload) (*serve.Server, error) {
	s := serve.New(serve.Options{Prewarm: !w.campaign})
	if !w.campaign {
		if _, err := s.Prewarm(context.Background()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// reference answers every distinct request of seq in process.
func reference(w workload, seq sequence) (map[string]expect, error) {
	s, err := newServer(w)
	if err != nil {
		return nil, err
	}
	out := map[string]expect{}
	var answer func(o op) (expect, error)
	answer = func(o op) (expect, error) {
		if e, ok := out[o.key()]; ok {
			return e, nil
		}
		etag := ""
		if o.Cond {
			plain := o
			plain.Cond = false
			pe, err := answer(plain)
			if err != nil {
				return expect{}, err
			}
			etag = pe.ETag
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, newRequest(o, etag))
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
			return expect{}, fmt.Errorf("%s: in-process status %d: %s", o.key(), rec.Code, body)
		}
		sum := sha256.Sum256(body)
		e := expect{Status: rec.Code, Hash: hex.EncodeToString(sum[:]), Len: len(body), ETag: rec.Header().Get("ETag")}
		out[o.key()] = e
		return e, nil
	}
	for _, o := range seq.all() {
		if _, err := answer(o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// span is one traced call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int32  `json:"op"`     // index of the timed op it belongs to
	Worker int8   `json:"worker"` // fabric worker index, or -1
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A tracer with on unset records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int32, worker int8, start, end int64) int32 {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Worker: worker, Name: name, Start: start, End: end})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent, op int32) int32 {
	return t.add(name, parent, op, -1, t.now(), 0)
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, op int32, f func() error) error {
	id := t.begin(name, parent, op)
	err := f()
	t.end(id)
	return err
}

// fabricRig is an in-process coordinator over two in-process workers,
// with a span around every worker request.
type fabricRig struct {
	workers [2]*httptest.Server
	coord   *fabric.Coordinator
	client  *http.Client
	// cur is the tracer, run span and op the worker spans attach to.
	cur   atomic.Pointer[tracer]
	run   atomic.Int32
	curOp atomic.Int32
}

func newFabricRig() (*fabricRig, error) {
	rig := &fabricRig{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	var targets []string
	for i := range rig.workers {
		// The real fleet's worker addresses, so the in-process ring is the
		// one the rounds measure.
		ln, err := listenFixed(workerAddrs[i])
		if err != nil {
			rig.close()
			return nil, err
		}
		h := serve.New(serve.Options{Worker: true}).Handler()
		idx := int8(i)
		rig.workers[i] = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr := rig.cur.Load()
			if tr == nil || r.URL.Path != fabric.PointsPath {
				h.ServeHTTP(w, r)
				return
			}
			start := tr.now()
			h.ServeHTTP(w, r)
			tr.add("fabric.worker", rig.run.Load(), rig.curOp.Load(), idx, start, tr.now())
		}))
		rig.workers[i].Listener.Close()
		rig.workers[i].Listener = ln
		rig.workers[i].Start()
		targets = append(targets, rig.workers[i].URL)
	}
	var err error
	rig.coord, err = fabric.NewCoordinator(targets, nil, rig.client)
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (rig *fabricRig) close() {
	rig.client.CloseIdleConnections()
	for _, w := range rig.workers {
		if w != nil {
			w.Close()
		}
	}
}

// replayer runs one sequence through every layer.
type replayer struct {
	srv *serve.Server
	eng *repro.Engine
	rig *fabricRig
}

// campaignOp replays one campaign op under tr. Every call into a layer
// gets its own span under the op's root span.
//
// own is false for the campaign probe artefact-read carries: then the
// serve and wire rows, which artefact-read measures on its own GETs,
// are left out.
func (rp *replayer) campaignOp(tr *tracer, i int32, root int32, o op, own bool) error {
	if own {
		if err := rp.serveOp(tr, i, root, o, ""); err != nil {
			return err
		}
	}
	var spec repro.CampaignSpec
	err := tr.timed("repro.spec_parse", root, i, func() (err error) {
		spec, err = repro.CampaignSpecFromJSON([]byte(o.Body), nil)
		return err
	})
	if err != nil {
		return err
	}
	var res repro.CampaignResult
	err = tr.timed("core.campaign", root, i, func() (err error) {
		start, first := tr.now(), true
		res, err = rp.eng.CampaignStream(spec, func(repro.CampaignPoint) error {
			if first {
				first = false
				tr.add("core.first_emit", root, i, -1, start, tr.now())
			}
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	var wire []byte
	err = tr.timed("report.encode", root, i, func() (err error) {
		_ = repro.FormatCampaignResult(res, false)
		wire, err = repro.CampaignResultWire(res)
		return err
	})
	if err != nil {
		return err
	}
	if own {
		if err := tr.timed("wire.decode", root, i, func() error { _, err := repro.DecodeWire(wire); return err }); err != nil {
			return err
		}
	}
	rp.rig.cur.Store(tr)
	rp.rig.curOp.Store(i)
	run := tr.begin("fabric.run", root, i)
	rp.rig.run.Store(run)
	points := 0
	_, err = rp.rig.coord.Run(context.Background(), []byte(o.Body), func(repro.CampaignPoint) error { points++; return nil })
	tr.end(run)
	if err == nil && points != o.Points {
		err = fmt.Errorf("fabric run delivered %d points, want %d", points, o.Points)
	}
	return err
}

// serveOp answers o through the in-process server into an in-memory
// writer, and decodes binary bodies.
func (rp *replayer) serveOp(tr *tracer, i int32, root int32, o op, etag string) error {
	rec := httptest.NewRecorder()
	req := newRequest(o, etag)
	tr.timed("serve.inproc", root, i, func() error { rp.srv.ServeHTTP(rec, req); return nil })
	if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
		return fmt.Errorf("%s: in-process status %d", o.key(), rec.Code)
	}
	if rec.Code == http.StatusOK && !o.Gzip && strings.HasSuffix(o.Path, "format=binary") {
		return tr.timed("wire.decode", root, i, func() error { _, err := repro.DecodeWire(rec.Body.Bytes()); return err })
	}
	return nil
}

// replay runs the generated inputs of w under a tracer (on for trace,
// off for notrace) and returns the per-op times of the timed ops and,
// when tracing, the per-layer figures.
func replay(w workload, in inputs, seed int64, on bool, spansOut string) (childOut, error) {
	var out childOut
	seq := in.Seq
	// Campaign layers are measured on the workload's own campaigns.
	// artefact-read issues none, so its campaign and fabric rows come
	// from a probe of the same seed's first campaign-cold ops.
	camp := seq
	if !w.campaign {
		camp = sequence{Timed: in.Probe}
	}
	off, tr := newTracer(false), newTracer(on)

	// Derivation and suite-plan probes run first, while the derivation
	// memo is as cold as a fresh daemon's.
	if err := probeDerive(off, camp.Warmup); err != nil {
		return out, err
	}
	if err := probeDerive(tr, camp.Timed); err != nil {
		return out, err
	}
	if err := probeSuitePlans(tr, camp.Timed, seed); err != nil {
		return out, err
	}

	srv, err := newServer(w)
	if err != nil {
		return out, err
	}
	rig, err := newFabricRig()
	if err != nil {
		return out, err
	}
	defer rig.close()
	rp := &replayer{srv: srv, eng: repro.NewEngine(repro.Options{}), rig: rig}

	if w.campaign {
		for _, o := range camp.Warmup {
			if err := rp.campaignOp(off, -1, -1, o, true); err != nil {
				return out, err
			}
		}
		for i, o := range camp.Timed {
			t0 := time.Now()
			root := tr.begin("op", -1, int32(i))
			if err := rp.campaignOp(tr, int32(i), root, o, true); err != nil {
				return out, err
			}
			tr.end(root)
			out.OpUS = append(out.OpUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	} else {
		etags := map[string]string{}
		for _, o := range seq.all() {
			if !o.Cond {
				continue
			}
			rec := httptest.NewRecorder()
			o.Cond = false
			srv.ServeHTTP(rec, newRequest(o, ""))
			etags[o.key()] = rec.Header().Get("ETag")
		}
		for _, o := range seq.Warmup {
			if err := rp.serveOp(off, -1, -1, o, etags[o.plainKey()]); err != nil {
				return out, err
			}
		}
		for i, o := range seq.Timed {
			t0 := time.Now()
			root := tr.begin("op", -1, int32(i))
			if err := rp.serveOp(tr, int32(i), root, o, etags[o.plainKey()]); err != nil {
				return out, err
			}
			tr.end(root)
			out.OpUS = append(out.OpUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		for i, o := range camp.Timed {
			root := tr.begin("probe", -1, int32(len(seq.Timed)+i))
			if err := rp.campaignOp(tr, int32(len(seq.Timed)+i), root, o, false); err != nil {
				return out, err
			}
			tr.end(root)
		}
	}
	if !on {
		return out, nil
	}
	points := 0
	for _, o := range camp.Timed {
		points += o.Points
	}
	out.Layers = layerFigures(tr.spans, points)
	return out, writeSpans(spansOut, tr.spans)
}

// probeDerive derives every machine the campaigns' axes produce, in the
// order the planner applies them, with a span per derivation.
func probeDerive(tr *tracer, ops []op) error {
	reg := repro.DefaultMachineRegistry()
	for i, o := range ops {
		s, err := specOf(o)
		if err != nil {
			return err
		}
		for _, label := range s.Machines {
			base, ok := reg.Get(label)
			if !ok {
				return fmt.Errorf("unknown machine %s", label)
			}
			if err := deriveAll(tr, int32(i), base, s.Axes, func(*machine.Machine) {}); err != nil {
				return err
			}
		}
	}
	return nil
}

// deriveAll applies axes in order and calls leaf with every variant.
func deriveAll(tr *tracer, op int32, m *machine.Machine, axes []campaignAx, leaf func(*machine.Machine)) error {
	if len(axes) == 0 {
		leaf(m)
		return nil
	}
	for _, v := range axes[0].Values {
		var d *machine.Machine
		err := tr.timed("machine.derive", -1, op, func() (err error) {
			switch axes[0].Axis {
			case "clock":
				d, err = m.WithClock(v * 1e9)
			case "vector":
				d, err = m.WithVectorBits(int(v))
			case "numa":
				d, err = m.WithNUMARegions(int(v))
			default:
				err = fmt.Errorf("axis %s has no derivation probe", axes[0].Axis)
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := deriveAll(tr, op, d, axes[1:], leaf); err != nil {
			return err
		}
	}
	return nil
}

// suitePlanSamples is how many configurations the perfmodel probe
// plans and evaluates.
const suitePlanSamples = 16

// probeSuitePlans compiles and evaluates a seeded sample of the grid
// points' configurations with perfmodel.Model.SuitePlan and Times.
func probeSuitePlans(tr *tracer, ops []op, seed int64) error {
	reg := repro.DefaultMachineRegistry()
	rng := rand.New(rand.NewSource(seed))
	model := perfmodel.New()
	specs := suite.All()
	off := newTracer(false)
	for k := 0; k < suitePlanSamples; k++ {
		i := rng.Intn(len(ops))
		s, err := specOf(ops[i])
		if err != nil {
			return err
		}
		base, _ := reg.Get(s.Machines[rng.Intn(len(s.Machines))])
		var variants []*machine.Machine
		if err := deriveAll(off, -1, base, s.Axes, func(m *machine.Machine) { variants = append(variants, m) }); err != nil {
			return err
		}
		m := variants[rng.Intn(len(variants))]
		threads := s.Threads[rng.Intn(len(s.Threads))]
		if threads <= 0 || threads > m.Cores {
			threads = m.Cores
		}
		pol, err := repro.ParsePlacement(s.Placements[rng.Intn(len(s.Placements))])
		if err != nil {
			return err
		}
		p, err := repro.ParsePrecision(s.Precisions[rng.Intn(len(s.Precisions))])
		if err != nil {
			return err
		}
		cfg := perfmodel.Config{Machine: m, Threads: threads, Placement: pol, Prec: p,
			Compiler: perfmodel.DefaultCompilerFor(m), Mode: autovec.VLS}
		err = tr.timed("perfmodel.suite_eval", -1, int32(i), func() error {
			plan, err := model.SuitePlan(specs, cfg)
			if err != nil {
				return err
			}
			plan.Times(nil)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// layerFigures turns spans into the traced per-layer metrics. points is
// the number of grid points the traced campaigns delivered.
func layerFigures(spans []span, points int) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	var busy [2]float64
	children := map[int32][]span{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		sum[s.Name] += d
		n[s.Name]++
		if s.Name == "fabric.worker" {
			busy[s.Worker] += d
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	avg := func(name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return sum[name] / float64(n[name])
	}
	self := 0.0
	for _, s := range spans {
		if s.Name == "fabric.run" {
			self += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e3
		}
	}
	skew := 0.0
	if m := (busy[0] + busy[1]) / 2; m > 0 {
		skew = max(busy[0], busy[1]) / m
	}
	pp := float64(points)
	return map[string]float64{
		"serve.inproc_us":                      avg("serve.inproc"),
		"repro.spec_parse_us":                  avg("repro.spec_parse"),
		"core.campaign_us":                     avg("core.campaign"),
		"core.first_emit_us":                   avg("core.first_emit"),
		"perfmodel.suite_eval_us":              avg("perfmodel.suite_eval"),
		"machine.derive_us":                    avg("machine.derive"),
		"report.encode_us":                     avg("report.encode"),
		"wire.decode_us":                       avg("wire.decode"),
		"fabric.run_us":                        avg("fabric.run"),
		"fabric.worker_busy_us_per_point":      sum["fabric.worker"] / pp,
		"fabric.coordinator_self_us_per_point": self / pp,
		"fabric.worker_skew":                   skew,
	}
}

// covered is how much of s's interval (ns) the union of kids covers.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > curE {
			total += curE - curS
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	return total + curE - curS
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
