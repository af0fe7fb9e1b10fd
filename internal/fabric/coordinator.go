package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// DefaultPointTimeout is the per-frame watchdog: how long the
// coordinator waits for a worker's next point before declaring it
// hung. It is generous — a point is milliseconds of model evaluation —
// because firing it costs re-evaluating the worker's outstanding
// shard elsewhere.
const DefaultPointTimeout = 60 * time.Second

// warmTimeout bounds one warm-join relay: the GET of a peer's snapshot
// and the POST of its bytes to the joining worker.
const warmTimeout = 60 * time.Second

// warmRetryDelay spaces retried warm shipments.
const warmRetryDelay = 250 * time.Millisecond

// AllWorkersDownError reports a campaign that cannot complete because
// every worker has been excluded. Failures maps each worker to why it
// was excluded. The HTTP layer answers it with 502 Bad Gateway and a
// Retry-After hint — the fleet may heal.
type AllWorkersDownError struct {
	Failures map[string]string
}

func (e *AllWorkersDownError) Error() string {
	return "fabric: all workers down (" + joinSorted(e.Failures, ": ", "; ") + ")"
}

// ReplicaMismatchError reports a point whose replica votes diverged
// with no way left to break the tie: no quorum agreed on the frame
// bytes and every eligible tiebreaker worker is already spent. Votes
// maps each voter to its frame digest, so the operator can see who
// disagreed with whom.
type ReplicaMismatchError struct {
	Index int
	Votes map[string]string
}

func (e *ReplicaMismatchError) Error() string {
	return fmt.Sprintf("fabric: replica mismatch at point %d unresolvable (%s)",
		e.Index, joinSorted(e.Votes, "=", ", "))
}

// joinSorted renders a worker-keyed map as "key<kv>value" pairs in key
// order, joined by sep.
func joinSorted(m map[string]string, kv, sep string) string {
	parts := make([]string, 0, len(m))
	for t := range m {
		parts = append(parts, t)
	}
	sort.Strings(parts)
	for i, t := range parts {
		parts[i] = t + kv + m[t]
	}
	return strings.Join(parts, sep)
}

// FabricStats is a point-in-time view of the coordinator's self-healing
// machinery, rendered into /metrics.
type FabricStats struct {
	ProbeDeaths   uint64 // live→dead transitions observed by the prober
	ProbeRevivals uint64 // dead→live transitions (rejoins)
	WarmJoins     uint64 // warm-join shipments completed
	WarmInstalled uint64 // cache entries installed across all warm-joins
	WarmErrors    uint64 // failed per-peer relays (snapshot GET or warm POST)
	Quarantines   uint64 // workers quarantined by the replica cross-check
	HeadPoints    uint64 // streamed grid heads (index 0) the coordinator evaluated itself
	Members       []MemberStatus
}

// Coordinator shards campaigns over a fixed fleet of workers. Fleet
// state lives in a Membership shared with the health prober, so a
// worker that dies mid-campaign is excluded, and one that recovers
// takes its keys back without a coordinator restart.
// Campaign state itself stays per-Run: each Run re-expands the grid,
// assigns points by rendezvous hash on the machine fingerprint, and
// holds its own exactly-once bookkeeping.
type Coordinator struct {
	mem    *Membership
	reg    *repro.MachineRegistry
	client *http.Client
	eng    *repro.Engine // evaluates a streamed run's grid head

	// PointTimeout overrides DefaultPointTimeout (tests shrink it).
	PointTimeout time.Duration

	// Replicas is how many top-ranked workers each point is
	// dispatched to (<=1 means no replication). With N > 1 the
	// coordinator byte-compares the replicas' frames and emits on
	// quorum (N/2+1); a worker whose bytes diverge is quarantined.
	Replicas int

	mu    sync.Mutex
	stats FabricStats // Members filled in by Stats()
}

// NewCoordinator builds a coordinator over worker base URLs
// ("http://host:port"). nil reg means the default registry; nil client
// means http.DefaultClient. The coordinator owns one serial engine of
// its own, on which streamed runs evaluate their grid head (index 0)
// in-process; its suite cache gains at most the head's configurations
// per streamed campaign.
func NewCoordinator(targets []string, reg *repro.MachineRegistry, client *http.Client) (*Coordinator, error) {
	mem, err := NewMembership(targets)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = repro.DefaultMachineRegistry()
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Coordinator{
		mem:    mem,
		reg:    reg,
		client: client,
		eng:    repro.NewEngine(repro.Options{Parallel: 1}),
	}, nil
}

// Stats snapshots the self-healing counters and per-member state.
func (c *Coordinator) Stats() FabricStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	s.Members = c.mem.Status()
	return s
}

// StartProber launches health probing over the fleet: every worker is
// probed on cfg's cadence, dying and reviving in the shared Membership,
// with a warm-join shipment fired on every revival. Cancel ctx to stop
// both: the probes and any shipment's POST and retry sleep. The
// returned wait blocks until the probe loops and every shipment have
// exited.
func (c *Coordinator) StartProber(ctx context.Context, cfg ProbeConfig) (wait func()) {
	var ships sync.WaitGroup
	probes := NewProber(c.mem, cfg, nil, func(target string, live bool) {
		c.mu.Lock()
		if live {
			c.stats.ProbeRevivals++
		} else {
			c.stats.ProbeDeaths++
		}
		c.mu.Unlock()
		if live {
			ships.Add(1)
			go func() {
				defer ships.Done()
				c.shipWarm(ctx, target)
			}()
		}
	}).Start(ctx)
	return func() {
		probes() // no probe loop is left to start a shipment
		ships.Wait()
	}
}

// warmAttempts bounds how many times a warm shipment is tried when no
// peer's relay succeeded.
const warmAttempts = 3

// shipWarm warms a (re)joined worker with the suite-cache entries it
// owns: for each live peer, it GETs the peer's snapshot filtered to
// the keys the ring routes to the worker (owner = the worker, fleet =
// every target) and POSTs the bytes unchanged to the worker's warm
// endpoint. One POST per peer, because each snapshot restores
// all-or-nothing. The shipment is retried a bounded number of times
// when no peer's relay succeeded (the edge fires once per revival, so a
// transient failure would otherwise leave the worker cold for good).
// Residual failure is non-fatal — a worker that could not warm serves
// its shard cold, bit-identically, just slower — but every failed relay
// counts in WarmErrors so degraded warmth is observable. Cancelling ctx
// abandons the shipment uncounted.
func (c *Coordinator) shipWarm(ctx context.Context, target string) {
	var peers []string
	for _, t := range c.mem.Live() {
		if t != target {
			peers = append(peers, t)
		}
	}
	if len(peers) == 0 {
		return
	}
	query := "?" + url.Values{"owner": {target}, "fleet": c.mem.Targets()}.Encode()
	for attempt := 0; attempt < warmAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(warmRetryDelay):
			}
		}
		var relayed, installed, failed int
		for _, peer := range peers {
			n, err := c.relayWarm(ctx, peer+SnapshotPath+query, target)
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				failed++
				continue
			}
			relayed++
			installed += n
		}
		c.mu.Lock()
		c.stats.WarmErrors += uint64(failed)
		if relayed > 0 {
			c.stats.WarmJoins++
			c.stats.WarmInstalled += uint64(installed)
		}
		c.mu.Unlock()
		if relayed > 0 {
			return
		}
	}
}

// relayWarm streams one peer's snapshot (GET src) into target's warm
// endpoint and returns how many entries target installed. The bytes
// and their Content-Length pass through unbuffered, so the bound on
// them is the warm handler's.
func (c *Coordinator) relayWarm(ctx context.Context, src, target string) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, warmTimeout)
	defer cancel()
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
	if err != nil {
		return 0, err
	}
	snap, err := c.client.Do(get)
	if err != nil {
		return 0, err
	}
	defer snap.Body.Close()
	if snap.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fabric: snapshot %s answered %s", src, snap.Status)
	}
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, target+WarmPath, snap.Body)
	if err != nil {
		return 0, err
	}
	post.ContentLength = snap.ContentLength
	post.Header.Set("Content-Type", SnapshotContentType)
	resp, err := c.client.Do(post)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fabric: warm relay to %s answered %s", target, resp.Status)
	}
	var wr warmResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return 0, err
	}
	return wr.Installed, nil
}

// workerMsg is one event from a request goroutine: an evaluated point
// (with its raw frame bytes, for the replica cross-check), or the
// request's end (err nil on a clean stream end).
type workerMsg struct {
	reqID  int
	target string
	done   bool
	err    error
	point  repro.CampaignPoint
	frame  []byte
}

// replicaVote is one worker's answer for one grid index.
type replicaVote struct {
	frame []byte
	point repro.CampaignPoint
}

// shardRequest is one dispatched shard: the worker asked and the grid
// indices it still owes.
type shardRequest struct {
	id      int
	target  string
	indices []int
	owed    map[int]bool
}

// Run evaluates the campaign described by specJSON (the verbatim
// client spec; the same bytes are forwarded to workers) across the
// fleet, calling emit once per point in grid order — exactly-once,
// duplicates and late arrivals discarded — and returns the assembled
// result.
//
// With Replicas == 1 each point goes to its ring owner; a worker that
// errors, stalls, or ends its stream with points missing is excluded
// for the rest of the run and its outstanding points re-dispatched.
// Re-dispatch consults the live Membership, so a worker the prober has
// revived since its failure takes its keys back mid-campaign. Run
// fails with *AllWorkersDownError only when no worker remains.
//
// With Replicas == N > 1 each point goes to its N highest-ranked
// workers (Ring.Owners); the coordinator byte-compares the replicas'
// frames and emits once a quorum (N/2+1) agrees. A worker whose bytes
// diverge from quorum is quarantined: marked sticky-dead in the
// Membership, its in-flight requests retired, its votes discarded, and
// its load re-dispatched. Divergence with no quorum and no tiebreaker worker
// left fails the run with *ReplicaMismatchError. When the surviving
// fleet is smaller than N, unanimous agreement among the reachable
// replicas is accepted at this degraded quorum — but divergence never
// is.
//
// A streamed run (emit non-nil) does not wait on the fleet for its
// first line: right after launching the shard requests it evaluates
// grid index 0 on the coordinator's own engine and decides that index
// with the point's own frame once some shard request has been written
// to a worker (httptrace's WroteRequest without an error). Until then
// the head is held, so a fleet that refuses every connection still
// fails with *AllWorkersDownError before anything is emitted. Index 0
// is dispatched to its owners all the same: their frames arrive as late
// replicas of a decided index and are byte-compared against the local
// one, so a worker that diverges there is quarantined at every replica
// count. A run that buffers (emit nil) evaluates nothing locally.
func (c *Coordinator) Run(ctx context.Context, specJSON []byte, emit func(repro.CampaignPoint) error) (repro.CampaignResult, error) {
	spec, err := repro.CampaignSpecFromJSON(specJSON, c.reg)
	if err != nil {
		return repro.CampaignResult{}, err
	}
	fps, err := spec.Fingerprints()
	if err != nil {
		return repro.CampaignResult{}, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := c.newRun(fps, emit)
	all := make([]int, len(fps))
	for i := range all {
		all[i] = i
	}
	err = r.assign(all)
	msgs := make(chan workerMsg, 16)
	launch := func() {
		for _, q := range r.queued {
			go c.runRequest(ctx, q.id, q.target, specJSON, q.indices, msgs)
		}
		r.queued = r.queued[:0]
	}
	var head *replicaVote
	wrote := make(chan struct{}) // closed once a shard request reached a worker
	if err == nil && emit != nil {
		var once sync.Once
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(info httptrace.WroteRequestInfo) {
				if info.Err == nil {
					once.Do(func() { close(wrote) })
				}
			},
		})
		launch()
		head = c.evalHead(spec)
	}
	for err == nil && r.nextEmit < len(fps) {
		launch()
		// A released head goes before any message: no worker frame can
		// precede the write that releases it, so a divergent owner of
		// index 0 never decides it.
		var gate <-chan struct{}
		if head != nil {
			select {
			case <-wrote:
				err, head = r.takeHead(*head), nil
				continue
			default:
				gate = wrote
			}
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-gate: // released: taken at the top of the loop
		case m := <-msgs:
			if m.done {
				err = r.onEnd(m)
			} else {
				err = r.onPoint(m)
			}
		}
	}
	if err != nil {
		return repro.CampaignResult{}, err
	}
	return repro.AssembleCampaignResult(spec, r.points)
}

// evalHead evaluates grid index 0 on the coordinator's own engine and
// frames it as a worker would. It answers nil, leaving the head to the
// fleet, when the local evaluation fails.
func (c *Coordinator) evalHead(spec repro.CampaignSpec) *replicaVote {
	var head *replicaVote
	_ = c.eng.CampaignPoints(spec, []int{0}, func(p repro.CampaignPoint) error {
		frame, err := appendPoint(nil, p)
		if err != nil {
			return err
		}
		head = &replicaVote{frame: frame, point: p}
		return nil
	})
	return head
}

// run is one Run's exactly-once bookkeeping: which workers each grid
// index was asked of and what they voted, the decided points, and the
// in-flight shard requests. Its methods change state and call emit but
// do no I/O: requests they dispatch queue up for Run to launch, so the
// state machine can be driven without a network.
type run struct {
	c        *Coordinator
	fps      []uint64
	emit     func(repro.CampaignPoint) error
	replicas int
	quorum   int

	runFailed map[string]int    // target -> membership epoch at run-local failure
	failures  map[string]string // target -> why it was excluded
	inflight  map[int]*shardRequest
	queued    []*shardRequest // dispatched, not yet launched
	nextReq   int

	// assigned holds each index's targets asked to vote, in windows of
	// one shared array with room for the replica set, so asking the
	// usual owners allocates nothing per index. votes is allocated per
	// index on first write; at quorum 1 the one vote decides on
	// arrival, so votes stays nil.
	assigned [][]string
	votes    []map[string]replicaVote
	points   []repro.CampaignPoint
	decided  [][]byte // winning frame bytes once decided (nil before)
	nextEmit int      // grid points before it are decided and emitted
}

func (c *Coordinator) newRun(fps []uint64, emit func(repro.CampaignPoint) error) *run {
	n := len(fps)
	replicas := max(c.Replicas, 1)
	slots := make([]string, n*replicas)
	assigned := make([][]string, n)
	for i := range assigned {
		assigned[i] = slots[i*replicas : i*replicas : (i+1)*replicas]
	}
	return &run{
		c: c, fps: fps, emit: emit,
		replicas:  replicas,
		quorum:    replicas/2 + 1,
		runFailed: map[string]int{},
		failures:  map[string]string{},
		inflight:  map[int]*shardRequest{},
		assigned:  assigned,
		votes:     make([]map[string]replicaVote, n),
		points:    make([]repro.CampaignPoint, n),
		decided:   make([][]byte, n),
	}
}

// ask records that target was asked to vote on index i.
func (r *run) ask(i int, target string) {
	if !slices.Contains(r.assigned[i], target) {
		r.assigned[i] = append(r.assigned[i], target)
	}
}

// unask forgets that target was asked to vote on index i.
func (r *run) unask(i int, target string) {
	a := r.assigned[i]
	if j := slices.Index(a, target); j >= 0 {
		a[j] = a[len(a)-1]
		r.assigned[i] = a[:len(a)-1]
	}
}

// exclusion merges the fleet's dead set with this run's local
// failures — except failures whose worker the prober has revived since
// (epoch bumped), which are forgiven so the revived worker rejoins
// mid-campaign.
func (r *run) exclusion() map[string]bool {
	exc := r.c.mem.DeadSet()
	for t, ep := range r.runFailed {
		if r.c.mem.Epoch(t) == ep {
			exc[t] = true
		}
	}
	return exc
}

// dispatch records a shard request to target and queues it for launch.
func (r *run) dispatch(target string, indices []int) {
	r.nextReq++
	q := &shardRequest{id: r.nextReq, target: target, indices: indices, owed: make(map[int]bool, len(indices))}
	for _, i := range indices {
		q.owed[i] = true
	}
	r.inflight[q.id] = q
	r.queued = append(r.queued, q)
}

// assign tops each index up to its replica set: the first `replicas`
// distinct live owners in rank order, skipping targets already asked.
// It fails only when an index has no reachable owner and no banked
// vote.
func (r *run) assign(indices []int) error {
	exc := r.exclusion()
	ring := r.c.mem.Ring()
	byTarget := map[string][]int{}
	for _, i := range indices {
		if r.decided[i] != nil {
			continue
		}
		owners := ring.Owners(r.fps[i], r.replicas, exc)
		if len(owners) == 0 && len(r.votes[i]) == 0 {
			return &AllWorkersDownError{Failures: r.failures}
		}
		for _, o := range owners {
			if slices.Contains(r.assigned[i], o) {
				continue
			}
			r.ask(i, o)
			byTarget[o] = append(byTarget[o], i)
		}
	}
	targets := make([]string, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		r.dispatch(t, byTarget[t])
	}
	return nil
}

// reassign re-dispatches indices a worker let down and re-examines
// their votes.
func (r *run) reassign(indices []int) error {
	sort.Ints(indices)
	if err := r.assign(indices); err != nil {
		return err
	}
	for _, i := range indices {
		if err := r.tally(i); err != nil {
			return err
		}
	}
	return nil
}

// onPoint takes one frame: a vote for an undecided index, or a late
// replica of a decided one, which still gets cross-checked — agreeing
// is redundant, diverging is quarantine.
func (r *run) onPoint(m workerMsg) error {
	q, ok := r.inflight[m.reqID]
	if !ok {
		return nil // a late message from a request already retired
	}
	i := m.point.Index
	if i < 0 || i >= len(r.fps) || !q.owed[i] {
		// Not a point this request owes: discard. (A worker sending
		// indices it was never asked for is misbehaving, but the grid
		// stays exactly-once.)
		return nil
	}
	delete(q.owed, i)
	if r.decided[i] != nil {
		if !bytes.Equal(m.frame, r.decided[i]) {
			return r.quarantine(m.target, mismatch(i, m.frame, r.decided[i]))
		}
		return nil
	}
	v := replicaVote{frame: m.frame, point: m.point}
	if r.quorum == 1 {
		return r.decide(i, v) // the one vote is the quorum
	}
	if r.votes[i] == nil {
		r.votes[i] = map[string]replicaVote{}
	}
	r.votes[i][m.target] = v
	return r.tally(i)
}

// onEnd retires a finished request. A clean end with nothing owed is
// done; anything else — transport error, decode error, timeout, or a
// clean end that still owes points — excludes the worker for this run
// and re-dispatches what it owed.
func (r *run) onEnd(m workerMsg) error {
	q, ok := r.inflight[m.reqID]
	if !ok {
		return nil
	}
	delete(r.inflight, m.reqID)
	if m.err == nil && len(q.owed) == 0 {
		return nil
	}
	r.runFailed[m.target] = r.c.mem.Epoch(m.target)
	if m.err != nil {
		r.failures[m.target] = m.err.Error()
	} else {
		r.failures[m.target] = fmt.Sprintf("stream ended with %d points missing", len(q.owed))
	}
	missing := make([]int, 0, len(q.owed))
	for i := range q.owed {
		r.unask(i, m.target)
		missing = append(missing, i)
	}
	return r.reassign(missing)
}

// tally re-examines index i after its vote set changed: decide on
// quorum, wait while a voter is still pending, recruit a tiebreaker
// when the votes are in but split, accept a unanimous undervote only
// when the fleet has nobody left to ask.
func (r *run) tally(i int) error {
	if r.decided[i] != nil || len(r.votes[i]) == 0 {
		return nil
	}
	// Distinct frames and their votes: a handful of voters, so a
	// linear scan.
	type frameCount struct {
		vote replicaVote
		n    int
	}
	var counts []frameCount
	for _, v := range r.votes[i] {
		k := 0
		for k < len(counts) && !bytes.Equal(counts[k].vote.frame, v.frame) {
			k++
		}
		if k == len(counts) {
			counts = append(counts, frameCount{vote: v})
		}
		counts[k].n++
	}
	var winner replicaVote
	best := 0
	for _, fc := range counts {
		if fc.n > best || (fc.n == best && bytes.Compare(fc.vote.frame, winner.frame) < 0) {
			winner, best = fc.vote, fc.n
		}
	}
	if best >= r.quorum {
		return r.decide(i, winner)
	}
	exc := r.exclusion()
	for _, t := range r.assigned[i] {
		if _, voted := r.votes[i][t]; !voted && !exc[t] {
			return nil // a live voter still owes its frame
		}
	}
	// Every asked worker has answered or died. Look for one more voter
	// beyond the current assignment.
	for _, t := range r.assigned[i] {
		exc[t] = true
	}
	extra := r.c.mem.Ring().Owners(r.fps[i], 1, exc)
	if len(extra) == 0 {
		if len(counts) == 1 {
			// Unanimous but under quorum: the surviving fleet is
			// smaller than the replica factor. Accept.
			return r.decide(i, winner)
		}
		e := &ReplicaMismatchError{Index: i, Votes: map[string]string{}}
		for t, v := range r.votes[i] {
			e.Votes[t] = frameDigest(v.frame)
		}
		return e
	}
	r.ask(i, extra[0])
	r.dispatch(extra[0], []int{i})
	return nil
}

// takeHead decides index 0 with the coordinator's own evaluation,
// unless a worker's frame decided it first.
func (r *run) takeHead(head replicaVote) error {
	if r.decided[0] != nil {
		return nil
	}
	r.c.mu.Lock()
	r.c.stats.HeadPoints++
	r.c.mu.Unlock()
	return r.decide(0, head)
}

// decide commits index i to the winning vote, emits any newly
// in-order prefix, and quarantines voters that disagreed with the
// winner.
func (r *run) decide(i int, winner replicaVote) error {
	var losers []string
	for t, v := range r.votes[i] {
		if !bytes.Equal(v.frame, winner.frame) {
			losers = append(losers, t)
		}
	}
	r.points[i], r.decided[i] = winner.point, winner.frame
	for r.nextEmit < len(r.fps) && r.decided[r.nextEmit] != nil {
		if r.emit != nil {
			if err := r.emit(r.points[r.nextEmit]); err != nil {
				return err
			}
		}
		r.nextEmit++
	}
	sort.Strings(losers)
	for _, t := range losers {
		if err := r.quarantine(t, mismatch(i, r.votes[i][t].frame, r.decided[i])); err != nil {
			return err
		}
	}
	return nil
}

// quarantine marks a worker sticky-dead fleet-wide, retires its
// in-flight requests, strips its votes from undecided indices, and
// re-dispatches everything it was still on the hook for.
func (r *run) quarantine(target, reason string) error {
	if r.c.mem.Quarantine(target, reason) {
		r.c.mu.Lock()
		r.c.stats.Quarantines++
		r.c.mu.Unlock()
	}
	r.failures[target] = reason
	r.runFailed[target] = r.c.mem.Epoch(target)
	var affected []int
	for id, q := range r.inflight {
		if q.target != target {
			continue
		}
		delete(r.inflight, id)
		for i := range q.owed {
			r.unask(i, target)
			affected = append(affected, i)
		}
	}
	for i := range r.votes {
		if _, ok := r.votes[i][target]; ok && r.decided[i] == nil {
			delete(r.votes[i], target)
			r.unask(i, target)
			affected = append(affected, i)
		}
	}
	return r.reassign(affected)
}

// mismatch is the quarantine reason for a frame that diverges from
// the quorum's at grid index i.
func mismatch(i int, frame, quorum []byte) string {
	return fmt.Sprintf("replica mismatch: point %d frame %s diverges from quorum %s",
		i, frameDigest(frame), frameDigest(quorum))
}

func frameDigest(frame []byte) string {
	return fmt.Sprintf("%016x", fnv1a(string(frame)))
}

// runRequest performs one shard request, forwarding each decoded point
// (with its raw frame) and finally a done message. A per-frame
// watchdog cancels the request if the worker goes longer than
// PointTimeout without producing a frame.
func (c *Coordinator) runRequest(ctx context.Context, id int, target string, specJSON []byte, indices []int, msgs chan<- workerMsg) {
	send := func(m workerMsg) bool {
		select {
		case msgs <- m:
			return true
		case <-ctx.Done():
			return false
		}
	}
	fail := func(err error) {
		send(workerMsg{reqID: id, target: target, done: true, err: err})
	}

	body, err := json.Marshal(pointsRequest{Spec: specJSON, Points: indices})
	if err != nil {
		fail(err)
		return
	}
	timeout := c.PointTimeout
	if timeout <= 0 {
		timeout = DefaultPointTimeout
	}
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(timeout, cancel)
	defer watchdog.Stop()

	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, target+PointsPath, bytes.NewReader(body))
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		fail(fmt.Errorf("worker answered %s: %s", resp.Status, strings.TrimSpace(string(msg))))
		return
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		fail(fmt.Errorf("worker answered content type %q, want %q", ct, ContentType))
		return
	}

	br := bufio.NewReader(resp.Body)
	for {
		buf, err := readRawFrame(br)
		if err == io.EOF {
			send(workerMsg{reqID: id, target: target, done: true})
			return
		}
		if err != nil {
			fail(err)
			return
		}
		watchdog.Reset(timeout)
		p, err := decodePoint(buf)
		if err != nil {
			fail(err)
			return
		}
		if !send(workerMsg{reqID: id, target: target, point: p, frame: buf}) {
			return
		}
	}
}
