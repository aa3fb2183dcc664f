package safetcp

// State returns the connection state.
func (c *Conn) State() State { return c.state }
