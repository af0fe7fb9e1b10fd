package fabric

// Membership exposes the fleet state to the external tests.
func (c *Coordinator) Membership() *Membership { return c.mem }
