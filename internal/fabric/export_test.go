package fabric

// Membership exposes the fleet state to the external tests.
func (c *Coordinator) Membership() *Membership { return c.mem }

// StopProber stops the health prober and waits for its loops to exit.
func (c *Coordinator) StopProber() {
	c.mu.Lock()
	p := c.prober
	c.mu.Unlock()
	if p != nil {
		p.Stop()
	}
}

// Stop cancels the probe loops and waits for them to exit.
func (p *Prober) Stop() {
	p.mu.Lock()
	cancel := p.cancel
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	p.wg.Wait()
}
