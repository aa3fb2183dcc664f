package safetcp

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// ConnCount returns the number of live connections in the demux table.
func (ep *Endpoint) ConnCount() int { return ep.demux.Len() }

// FreePorts returns the number of unused ephemeral ports.
func (ep *Endpoint) FreePorts() int { return ep.ports.Free() }
