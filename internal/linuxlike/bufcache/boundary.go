package bufcache

import (
	"safelinux/internal/linuxlike/kbase"
)

// Crash containment for the buffer cache: the public cache operations
// route through an installable boundary, so a panic in cache internals
// (flag-protocol BUGs, a poisoned buffer) is recovered at the caller's
// line and converted to a typed error. Satisfied by
// *compartment.Compartment via its Run method; structural typing keeps
// this package free of a safety-layer import.
//
// Only the outermost entry points are guarded — doBread calls doGetBlk
// directly, never the public wrapper, so a hot-swap drain cannot
// deadlock on a nested entry.
type Boundary interface {
	Run(op string, fn func() kbase.Errno) kbase.Errno
}

type boundaryBox struct{ b Boundary }

// SetBoundary installs (or, with nil, removes) the containment
// boundary around the public cache surface.
func (c *Cache) SetBoundary(b Boundary) {
	if b == nil {
		c.boundary.Store(nil)
		return
	}
	c.boundary.Store(&boundaryBox{b: b})
}

func (c *Cache) guardBuf(op string, fn func() (*BufferHead, kbase.Errno)) (*BufferHead, kbase.Errno) {
	box := c.boundary.Load()
	if box == nil {
		return fn()
	}
	var bh *BufferHead
	err := box.b.Run(op, func() kbase.Errno {
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

// WriteBuffer synchronously writes one buffer to disk and clears its
// dirty bit (sync_dirty_buffer for a single bh).
func (c *Cache) WriteBuffer(bh *BufferHead) kbase.Errno {
	box := c.boundary.Load()
	if box == nil {
		return c.doWriteBuffer(bh)
	}
	return box.b.Run("write_buffer", func() kbase.Errno { return c.doWriteBuffer(bh) })
}

// SyncDirty writes all dirty buffers and issues a device flush
// barrier (sync_dirty_buffers + blkdev_issue_flush).
func (c *Cache) SyncDirty() kbase.Errno {
	box := c.boundary.Load()
	if box == nil {
		return c.doSyncDirty()
	}
	return box.b.Run("sync_dirty", func() kbase.Errno { return c.doSyncDirty() })
}

// SyncDirtyCtx is SyncDirty with task context: the whole flush is
// timed into the bufcache:sync histogram, and the kio batch appears
// as a child span of the caller's trace.
func (c *Cache) SyncDirtyCtx(task *kbase.Task) kbase.Errno {
	t := opSync.Begin(task)
	defer t.End()
	box := c.boundary.Load()
	if box == nil {
		return c.doSyncDirtyCtx(task)
	}
	return box.b.Run("sync_dirty", func() kbase.Errno { return c.doSyncDirtyCtx(task) })
}

// SyncBlocksCtx writes the dirty buffers among blocks and issues a
// device flush barrier — a file's fsync writes its own data this way
// instead of syncing the whole cache. Timed into the bufcache:sync
// histogram like SyncDirtyCtx; clean and uncached blocks are skipped.
func (c *Cache) SyncBlocksCtx(task *kbase.Task, blocks []uint64) kbase.Errno {
	t := opSync.Begin(task)
	defer t.End()
	box := c.boundary.Load()
	if box == nil {
		return c.doSyncBlocksCtx(task, blocks)
	}
	return box.b.Run("sync_blocks", func() kbase.Errno { return c.doSyncBlocksCtx(task, blocks) })
}
