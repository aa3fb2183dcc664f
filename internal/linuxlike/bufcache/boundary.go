package bufcache

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/gate"
)

// Crash containment for the buffer cache: the public cache operations
// cross an installable gate, so a panic in cache internals
// (flag-protocol BUGs, a poisoned buffer) is recovered at the caller's
// line and converted to a typed error. The gate is the concrete
// trusted-core type: a cache hit crosses it with one static call that
// takes no lock and allocates nothing, and this package never imports
// the safety layer's policy.
//
// Only the outermost entry points are guarded — doBread calls doGetBlk
// directly, never the public wrapper, so a hot-swap drain cannot
// deadlock on a nested entry.

// SetGate installs (or, with nil, removes) the containment gate around
// the public cache surface.
func (c *Cache) SetGate(g *gate.Gate) { c.gate.Store(g) }

func (c *Cache) guardBuf(op string, fn func() (*BufferHead, kbase.Errno)) (*BufferHead, kbase.Errno) {
	g := c.gate.Load()
	if g == nil {
		return fn()
	}
	var bh *BufferHead
	err := g.Run(op, func() kbase.Errno {
		var e kbase.Errno
		bh, e = fn()
		return e
	})
	if err != kbase.EOK {
		return nil, err
	}
	return bh, kbase.EOK
}

// GetBlk returns the buffer for block without reading it from disk
// (getblk). The returned buffer holds a new reference.
func (c *Cache) GetBlk(block uint64) (*BufferHead, kbase.Errno) {
	return c.guardBuf("getblk", func() (*BufferHead, kbase.Errno) { return c.doGetBlk(block) })
}

// Bread returns an uptodate buffer for block, reading from disk if
// necessary (bread).
func (c *Cache) Bread(block uint64) (*BufferHead, kbase.Errno) {
	return c.guardBuf("bread", func() (*BufferHead, kbase.Errno) { return c.doBread(block) })
}

// BreadCtx is Bread with task context for the latency plane: a miss
// that fills from the device records into the bufcache:fill histogram
// and, when the task is inside a trace, appears as a child span.
// Same reference contract as Bread.
func (c *Cache) BreadCtx(task *kbase.Task, block uint64) (*BufferHead, kbase.Errno) {
	return c.guardBuf("bread", func() (*BufferHead, kbase.Errno) { return c.doBreadCtx(task, block) })
}

// SyncDirtyCtx writes all dirty buffers and issues a device flush
// barrier (sync_dirty_buffers + blkdev_issue_flush). The whole flush
// is timed into the bufcache:sync histogram, and the kio batch
// appears as a child span of the caller's trace.
func (c *Cache) SyncDirtyCtx(task *kbase.Task) kbase.Errno {
	t := opSync.Begin(task)
	defer t.End()
	g := c.gate.Load()
	if g == nil {
		return c.doSyncDirtyCtx(task)
	}
	return g.Run("sync_dirty", func() kbase.Errno { return c.doSyncDirtyCtx(task) })
}

// SyncBlocksCtx writes the dirty buffers among blocks and issues a
// device flush barrier — a file's fsync writes its own data this way
// instead of syncing the whole cache. Timed into the bufcache:sync
// histogram like SyncDirtyCtx; clean and uncached blocks are skipped.
func (c *Cache) SyncBlocksCtx(task *kbase.Task, blocks []uint64) kbase.Errno {
	t := opSync.Begin(task)
	defer t.End()
	g := c.gate.Load()
	if g == nil {
		return c.doSyncBlocksCtx(task, blocks)
	}
	return g.Run("sync_blocks", func() kbase.Errno { return c.doSyncBlocksCtx(task, blocks) })
}
