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
// A crossing costs the same whatever it carries, so file data crosses
// once per operation, not once per block: CopyOut and CopyIn take the
// device blocks of a whole byte range and run the per-block bread,
// copy, dirtying and release inside one gate entry. A 4 KiB extlike
// read thus crosses twice at most (the indirect block, then the data)
// where a block-at-a-time loop crossed 8 to 15 times.
//
// Only the outermost entry points are guarded — doBread calls doGetBlk
// directly, never the public wrapper, so a hot-swap drain cannot
// deadlock on a nested entry.

// SetGate installs (or, with nil, removes) the containment gate around
// the public cache surface.
func (c *Cache) SetGate(g *gate.Gate) { c.gate.Store(g) }

// guard runs fn across the gate, or directly when none is installed.
func (c *Cache) guard(op string, fn func() kbase.Errno) kbase.Errno {
	g := c.gate.Load()
	if g == nil {
		return fn()
	}
	return g.Run(op, fn)
}

func (c *Cache) guardBuf(op string, fn func() (*BufferHead, kbase.Errno)) (*BufferHead, kbase.Errno) {
	var bh *BufferHead
	err := c.guard(op, func() kbase.Errno {
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

// CopyOut copies a byte range of file data out of the cache in one
// crossing. blocks are the device blocks the range spans, in order, 0
// marking a hole that reads as zeros; off is where the range starts in
// blocks[0]. Each block takes the BreadCtx path (a miss fills from the
// device) and is released before the next. Returns the bytes copied:
// len(buf) unless a block fails, or EINVAL if blocks end before buf.
func (c *Cache) CopyOut(task *kbase.Task, blocks []uint64, off int, buf []byte) (int, kbase.Errno) {
	n := 0
	err := c.guard("copy_out", func() kbase.Errno {
		var e kbase.Errno
		n, e = c.doCopy(task, blocks, off, buf, false)
		return e
	})
	return n, err
}

// CopyIn copies data into the cache over a byte range in one crossing,
// marking each block it writes dirty. blocks and off are as for
// CopyOut, except that every block must be mapped (no holes). A block
// the range covers whole is taken without a read, as getblk would; a
// partly covered one is read first. Returns the bytes copied, with the
// same errors as CopyOut.
func (c *Cache) CopyIn(task *kbase.Task, blocks []uint64, off int, data []byte) (int, kbase.Errno) {
	n := 0
	err := c.guard("copy_in", func() kbase.Errno {
		var e kbase.Errno
		n, e = c.doCopy(task, blocks, off, data, true)
		return e
	})
	return n, err
}

// SyncDirtyCtx writes all dirty buffers and issues a device flush
// barrier (sync_dirty_buffers + blkdev_issue_flush). The whole flush
// is timed into the bufcache:sync histogram, and the kio batch
// appears as a child span of the caller's trace.
func (c *Cache) SyncDirtyCtx(task *kbase.Task) kbase.Errno {
	t := opSync.Begin(task)
	defer t.End()
	return c.guard("sync_dirty", func() kbase.Errno { return c.doSyncDirtyCtx(task) })
}

// SyncBlocksCtx writes the dirty buffers among blocks and issues a
// device flush barrier — a file's fsync writes its own data this way
// instead of syncing the whole cache. Timed into the bufcache:sync
// histogram like SyncDirtyCtx; clean and uncached blocks are skipped.
func (c *Cache) SyncBlocksCtx(task *kbase.Task, blocks []uint64) kbase.Errno {
	t := opSync.Begin(task)
	defer t.End()
	return c.guard("sync_blocks", func() kbase.Errno { return c.doSyncBlocksCtx(task, blocks) })
}
