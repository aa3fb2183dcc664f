package kio

import "safelinux/internal/safety/gate"

// Crash containment for the I/O engine: Submit — the boundary every
// caller crosses to reach the engine — executes the batch inside an
// installable gate, so device I/O runs inside the compartment. A fault
// contained there (or a quarantined engine compartment) must not leave
// SQEs without a completion, so Submit completes every SQE the
// execution had not yet completed with the gate's typed errno through
// the normal CQE path, exactly like a device error. The gate is the
// concrete trusted-core type: the crossing takes no lock and allocates
// nothing, and this package never imports the safety layer's policy.

// SetGate installs (or, with nil, removes) the containment gate around
// batch execution.
func (e *Engine) SetGate(g *gate.Gate) { e.gate.Store(g) }
