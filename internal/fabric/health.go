package fabric

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Default probe cadence. The interval bounds how long a dead worker
// stays in the fleet after recovering; the timeout bounds how long a
// hung worker can stall a probe; the backoff caps how rarely a
// long-dead worker is re-checked (probes to it double from Interval up
// to Backoff, so a flapping fleet is not hammered).
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = 1 * time.Second
	DefaultProbeBackoff  = 16 * time.Second
)

// ProbeConfig tunes a Prober. Zero fields take the defaults above.
type ProbeConfig struct {
	Interval time.Duration
	Timeout  time.Duration
	Backoff  time.Duration
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultProbeInterval
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultProbeTimeout
	}
	if c.Backoff < c.Interval {
		c.Backoff = 8 * c.Interval
	}
	return c
}

// Prober drives fleet membership from periodic health checks: every
// Interval it GETs each worker's /v1/fabric/healthz; a failure marks
// the worker dead, a success marks it live again — so a bounced worker
// rejoins the ring without any coordinator restart, and campaigns
// dispatched after the transition route to it again. Transitions (not
// steady states) fire the onTransition callback, which is where the
// coordinator hangs its rebalance bookkeeping and snapshot shipping.
type Prober struct {
	mem    *Membership
	client *http.Client
	cfg    ProbeConfig
	// onTransition, when non-nil, runs on every membership edge this
	// prober causes: live reports the new state. Called off the probe
	// goroutine; implementations must be concurrency-safe.
	onTransition func(target string, live bool)

	mu     sync.Mutex
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewProber builds a prober over a membership. nil client means a
// dedicated client bounded by the probe timeout.
func NewProber(mem *Membership, cfg ProbeConfig, client *http.Client, onTransition func(target string, live bool)) *Prober {
	cfg = cfg.withDefaults()
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	return &Prober{
		mem:          mem,
		client:       client,
		cfg:          cfg,
		onTransition: onTransition,
	}
}

// Start launches one probe loop per member and returns. The loops
// stop when ctx is cancelled.
func (p *Prober) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	p.mu.Lock()
	p.cancel = cancel
	p.mu.Unlock()
	for _, t := range p.mem.Targets() {
		p.wg.Add(1)
		go p.loop(ctx, t)
	}
}

// loop probes one target forever. Live targets are probed every
// Interval; after a death the delay doubles per failed probe up to
// Backoff, and snaps back to Interval on recovery.
func (p *Prober) loop(ctx context.Context, target string) {
	defer p.wg.Done()
	delay := p.cfg.Interval
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if err := p.probe(ctx, target); err != nil {
			if p.mem.MarkDead(target, fmt.Sprintf("health probe: %v", err)) && p.onTransition != nil {
				p.onTransition(target, false)
			}
			delay *= 2
			if delay > p.cfg.Backoff {
				delay = p.cfg.Backoff
			}
		} else {
			if p.mem.MarkLive(target) && p.onTransition != nil {
				p.onTransition(target, true)
			}
			delay = p.cfg.Interval
		}
		timer.Reset(delay)
	}
}

// probe GETs the target's fabric health endpoint once, bounded by the
// probe timeout.
func (p *Prober) probe(ctx context.Context, target string) error {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+HealthPath, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}
