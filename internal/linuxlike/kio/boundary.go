package kio

import (
	"safelinux/internal/linuxlike/kbase"
)

// Crash containment for the I/O engine: Submit — the boundary every
// caller crosses to reach the engine — executes the batch inside an
// installable containment hook, so device I/O runs inside the
// compartment. A fault contained there (or a quarantined engine
// compartment) must not leave SQEs without a completion, so Submit
// completes every SQE the execution had not yet completed with the
// boundary's typed errno through the normal CQE path, exactly like a
// device error. Satisfied by *compartment.Compartment via its Run
// method.
type Boundary interface {
	Run(op string, fn func() kbase.Errno) kbase.Errno
}

type boundaryBox struct{ b Boundary }

// SetBoundary installs (or, with nil, removes) the containment
// boundary around batch execution.
func (e *Engine) SetBoundary(b Boundary) {
	if b == nil {
		e.boundary.Store(nil)
		return
	}
	e.boundary.Store(&boundaryBox{b: b})
}
