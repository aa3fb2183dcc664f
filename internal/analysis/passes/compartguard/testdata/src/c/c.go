// Testdata for compartguard's gate-discipline rule in the other shapes
// the kernel uses: the vfs's generic value-returning gate helper, the
// net host's inline gate around packet dispatch, and a policy type
// that embeds the gate (like compartment.Compartment), whose promoted
// methods are gate methods too.
package c

import (
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/gate"
)

// VFS is the compartmentalized subsystem.
type VFS struct {
	gate    atomic.Pointer[gate.Gate]
	dropped int
}

// SetGate installs the containment gate.
func (v *VFS) SetGate(g *gate.Gate) { v.gate.Store(g) }

// guardRet is a generic gate, like vfs.guardRet.
func guardRet[T any](v *VFS, task *kbase.Task, op string, fn func() (T, kbase.Errno)) (T, kbase.Errno) {
	g := v.gate.Load()
	if g == nil {
		return fn()
	}
	var out T
	err := g.Do(task, op, func() kbase.Errno {
		var e kbase.Errno
		out, e = fn()
		return e
	})
	if err != kbase.EOK {
		var zero T
		return zero, err
	}
	return out, kbase.EOK
}

func (v *VFS) doStat(task *kbase.Task, path string) (int, kbase.Errno) { return len(path), kbase.EOK }
func (v *VFS) doReceive(pkt []byte)                                    { v.dropped += len(pkt) }

// Stat routes through the generic gate.
func (v *VFS) Stat(task *kbase.Task, path string) (int, kbase.Errno) {
	return guardRet(v, task, "stat", func() (int, kbase.Errno) { return v.doStat(task, path) })
}

// StatFast skips it.
func (v *VFS) StatFast(task *kbase.Task, path string) (int, kbase.Errno) {
	return v.doStat(task, path) // want `exported StatFast bypasses the compartment boundary: doStat`
}

// receive is the inline gate of the net host's dispatch.
func (v *VFS) receive(pkt []byte) {
	g := v.gate.Load()
	if g == nil {
		v.doReceive(pkt)
		return
	}
	if err := g.Run("rx", func() kbase.Errno { v.doReceive(pkt); return kbase.EOK }); err != kbase.EOK {
		v.dropped++
	}
}

// Deliver routes through the inline gate...
func (v *VFS) Deliver(pkt []byte) { v.receive(pkt) }

// ...and DeliverRaw does not.
func (v *VFS) DeliverRaw(pkt []byte) {
	v.doReceive(pkt) // want `exported DeliverRaw bypasses the compartment boundary: doReceive`
}

// Policy embeds the gate, like compartment.Compartment.
type Policy struct{ *gate.Gate }

// Engine crosses the gate through the embedding type.
type Engine struct{ p *Policy }

func (e *Engine) execute() kbase.Errno { return kbase.EOK }

// Submit crosses the promoted gate method.
func (e *Engine) Submit() kbase.Errno {
	return e.p.Run("submit", func() kbase.Errno { return e.execute() })
}

// SubmitDirect does not.
func (e *Engine) SubmitDirect() kbase.Errno {
	return e.execute() // want `exported SubmitDirect bypasses the compartment boundary: execute`
}
