// Testdata for compartguard's gate-discipline rule, shaped like the
// bufcache idiom: an atomically installed concrete gate, gate helpers,
// and unexported doX internals.
package a

import (
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/gate"
)

// Cache is the compartmentalized subsystem.
type Cache struct{ gate atomic.Pointer[gate.Gate] }

// SetGate installs the containment gate.
func (c *Cache) SetGate(g *gate.Gate) { c.gate.Store(g) }

// guard is a gate: it calls a method of the gate type.
func (c *Cache) guard(op string, fn func() kbase.Errno) kbase.Errno {
	g := c.gate.Load()
	if g == nil {
		return fn()
	}
	return g.Run(op, fn)
}

func (c *Cache) doRead() kbase.Errno  { return kbase.EOK }
func (c *Cache) doWrite() kbase.Errno { return kbase.EOK }
func (c *Cache) doSync() kbase.Errno  { return kbase.EOK }

// Read routes through the gate: the sanctioned shape.
func (c *Cache) Read() kbase.Errno {
	return c.guard("read", func() kbase.Errno { return c.doRead() })
}

// Write uses the inline-gate shape (kio.Submit): it is itself a gate,
// so its no-gate fallback may call the internal directly.
func (c *Cache) Write() kbase.Errno {
	g := c.gate.Load()
	if g == nil {
		return c.doWrite()
	}
	return g.Run("write", func() kbase.Errno { return c.doWrite() })
}

// Sync routes correctly...
func (c *Cache) Sync() kbase.Errno {
	return c.guard("sync", func() kbase.Errno { return c.doSync() })
}

// ...but FastSync bypasses the gate: the containment plane never sees
// this entry point.
func (c *Cache) FastSync() kbase.Errno {
	return c.doSync() // want `bypasses the compartment boundary`
}

// wrapper is an unexported bypass: calling a guarded internal outside
// a gate literal makes it guarded too.
func (c *Cache) wrapper() kbase.Errno { return c.doRead() }

// ReadUnsafe reaches the guarded internal through the wrapper.
func (c *Cache) ReadUnsafe() kbase.Errno {
	return c.wrapper() // want `bypasses the compartment boundary`
}

// Stats touches nothing guarded: exported non-gate paths that stay
// off the doX internals are fine.
func (c *Cache) Stats() int { return 0 }

// Suppression requires a reason, like every kerncheck directive.
func (c *Cache) Audited() kbase.Errno {
	return c.doSync() //kerncheck:ignore compartguard exercised by the suppression test
}
