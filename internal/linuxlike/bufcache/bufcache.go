// Package bufcache implements the buffer cache of the simulated
// kernel, deliberately in the legacy Linux style the paper's §4.4
// critiques: each cached disk block is exposed through a BufferHead
// carrying sixteen independently-set state flags whose valid
// combinations are nowhere encoded, shared mutably between the file
// system, the journal, and the cache itself.
//
// The package also contains the flag-state auditor used by the
// experiments to demonstrate how many of the 2^16 combinations are
// actually meaningful — the quantitative backdrop for the paper's
// claim that "not all of the combinations are valid, but even
// determining which are can be complicated".
//
// Concurrency model: a cache hit takes no lock. The cache indexes its
// buffers by block number in a two-level table of atomic pointers, the
// role Linux's page-cache xarray plays: each 512-slot chunk is
// allocated on the first insert into its range. A hit loads the slot
// and takes a reference with an "increment unless negative" CAS on the
// buffer's reference count, and marks the buffer referenced instead of
// relinking it on an LRU list. The flag word (b_state) and the journal
// breadcrumb are atomics, set and cleared with CAS loops, so testing
// BHUptodate on a hit is one load.
//
// Everything else is lock-striped into NumShards shards keyed by
// block % NumShards. A shard's mutex guards its LRU list and dirty
// set, and it is held for misses, inserts, eviction, Invalidate and
// CheckLive. Eviction claims a buffer by CAS-ing its reference count
// from 0 to -1 before it clears the slot, so a racing hit either got
// its reference first, and the claim fails, or sees -1 and misses; an
// evicted buffer never comes back to life. The eviction scan gives a
// referenced buffer a second chance: it clears the bit and moves the
// buffer to the front. MarkDirty is a test-and-set, as
// mark_buffer_dirty: only the clean-to-dirty transition takes the
// shard lock to join the dirty set, and writeback and Forget clear
// BHDirty and leave the set under that same lock, so the flag and the
// set always agree. Reference counts are atomic (Put touches no lock),
// and the capacity bound is a cache-wide atomic that a miss reserves
// by CAS, with per-shard eviction approximating a global LRU the way
// per-CPU pagevecs do.
package bufcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

// Tracepoints (args documented in DESIGN.md's catalog).
var (
	tpGet       = ktrace.New("bufcache:get")       // a0=block, a1=1 on cache hit
	tpPut       = ktrace.New("bufcache:put")       // a0=block, a1=refcount before release
	tpWriteback = ktrace.New("bufcache:writeback") // a0=block
)

// Latency-plane ops: a cache miss that must fill from the device, and
// a writeback flush of the whole dirty set or of one file's blocks
// (exported as bufcache.fill_ns and bufcache.sync_ns histograms; span
// children of the calling trace).
var (
	opFill = ktrace.NewOp("bufcache:fill")
	opSync = ktrace.NewOp("bufcache:sync")
)

// NumShards is the lock-striping factor of the cache.
const NumShards = 16

// chunkBits sizes one chunk of the block table: 1<<chunkBits slots.
const chunkBits = 9

// tableChunk is one lazily allocated chunk of the block table.
type tableChunk [1 << chunkBits]atomic.Pointer[BufferHead]

// Flag is one buffer_head state bit. The set mirrors Linux's
// enum bh_state_bits.
type Flag uint16

// The sixteen buffer state flags (paper §4.4: "includes 16 state
// flags that describe whether the buffer is mapped, dirty, etc.").
const (
	BHUptodate     Flag = 1 << iota // contains valid data
	BHDirty                         // is dirty
	BHLock                          // is locked
	BHReq                           // has been submitted for I/O
	BHUptodateLock                  // internal serialization of uptodate
	BHMapped                        // has a disk mapping
	BHNew                           // disk mapping newly allocated, not yet written
	BHAsyncRead                     // under end_buffer_async_read I/O
	BHAsyncWrite                    // under end_buffer_async_write I/O
	BHDelay                         // delayed allocation, no mapping yet
	BHBoundary                      // block followed by a discontiguity
	BHWriteEIO                      // I/O error on write
	BHUnwritten                     // allocated on disk but unwritten
	BHQuiet                         // suppress I/O error messages
	BHMeta                          // contains metadata
	BHPrio                          // submit with REQ_PRIO
)

// FlagNames maps each flag to its Linux-style name for reports.
var FlagNames = map[Flag]string{
	BHUptodate: "Uptodate", BHDirty: "Dirty", BHLock: "Lock",
	BHReq: "Req", BHUptodateLock: "UptodateLock", BHMapped: "Mapped",
	BHNew: "New", BHAsyncRead: "AsyncRead", BHAsyncWrite: "AsyncWrite",
	BHDelay: "Delay", BHBoundary: "Boundary", BHWriteEIO: "WriteEIO",
	BHUnwritten: "Unwritten", BHQuiet: "Quiet", BHMeta: "Meta", BHPrio: "Prio",
}

// BufferHead is one cached disk block, shared mutably across kernel
// components exactly as struct buffer_head is. Data is exposed as a
// raw slice; flags are exposed for direct manipulation by file
// systems and the journal. Nothing here enforces a state machine —
// that is the point.
type BufferHead struct {
	Block uint64
	Data  []byte

	// state is the b_state word: the Flag bits, set and cleared by CAS
	// loops as Linux's set_bit and clear_bit are atomic bitops.
	state atomic.Uint32

	// ioMu serializes the read-in path (Bread) so two tasks missing on
	// the same block do not both copy from the device into Data.
	ioMu sync.Mutex

	cache *Cache
	// refcount is the number of holders; -1 marks a buffer eviction has
	// claimed, which no lookup may take again.
	refcount atomic.Int32
	// referenced is set by a hit and cleared by the eviction scan, which
	// gives a referenced buffer a second chance. It is not a Flag: the
	// sixteen flags are the §4.4 state space the audit enumerates.
	referenced atomic.Bool

	// Intrusive LRU links, guarded by the owning shard's mutex. A
	// typed intrusive list replaces the old container/list, whose
	// any-typed Element.Value forced a cast on every eviction.
	lruPrev, lruNext *BufferHead

	// journalSeq replaces the void*-style JournalData (b_private)
	// field: the journal records the owning transaction's sequence
	// through the typed accessors below, so the cache/journal crossing
	// is no longer an untyped any that other components could stomp.
	// Zero means "not joined to any transaction".
	journalSeq atomic.Uint64
}

// SetJournalSeq records the journal transaction bh has joined — the
// typed successor of the b_private breadcrumb.
func (bh *BufferHead) SetJournalSeq(seq uint64) { bh.journalSeq.Store(seq) }

// ClearJournalSeq removes the transaction breadcrumb (commit time).
func (bh *BufferHead) ClearJournalSeq() { bh.journalSeq.Store(0) }

// MetaRef is the capability a buffer holder presents to the journal
// when registering the buffer as transaction metadata. Only bufcache
// can mint one (the field is unexported), so a *BufferHead obtained
// outside the cache's get/bread surface cannot be journaled, and the
// journal's exported API no longer traffics in the shared raw pointer.
type MetaRef struct {
	bh *BufferHead
}

// Meta mints the journaling capability for bh.
func (bh *BufferHead) Meta() MetaRef { return MetaRef{bh: bh} }

// Head returns the underlying buffer. bufcache is the owning package
// of BufferHead, so this is the one audited unwrap point.
func (r MetaRef) Head() *BufferHead { return r.bh }

// Valid reports whether the capability wraps a live buffer.
func (r MetaRef) Valid() bool { return r.bh != nil }

// TestFlag reports whether f is set.
func (bh *BufferHead) TestFlag(f Flag) bool { return bh.Flags()&f != 0 }

// SetFlag sets f. No validity checking happens here, as in Linux.
func (bh *BufferHead) SetFlag(f Flag) { bh.update(f, 0) }

// ClearFlag clears f.
func (bh *BufferHead) ClearFlag(f Flag) { bh.update(0, f) }

// Flags returns the raw flag word.
func (bh *BufferHead) Flags() Flag { return Flag(bh.state.Load()) }

// update atomically clears clr and sets set in the flag word and
// returns the word it replaced. A word that already reads as the
// result is left unwritten.
func (bh *BufferHead) update(set, clr Flag) Flag {
	for {
		old := bh.state.Load()
		next := old&^uint32(clr) | uint32(set)
		if next == old || bh.state.CompareAndSwap(old, next) {
			return Flag(old)
		}
	}
}

// MarkDirty marks the buffer dirty and puts it on the cache's dirty
// list, mirroring mark_buffer_dirty: a buffer already dirty is already
// on the list, so only the clean-to-dirty transition takes the shard
// lock.
func (bh *BufferHead) MarkDirty() {
	if bh.Dirty() {
		return
	}
	s := bh.cache.shard(bh.Block)
	s.mu.Lock()
	if bh.update(BHDirty, 0)&BHDirty == 0 {
		s.dirty[bh.Block] = bh
	}
	s.mu.Unlock()
}

// Uptodate reports BHUptodate.
func (bh *BufferHead) Uptodate() bool { return bh.TestFlag(BHUptodate) }

// Dirty reports BHDirty.
func (bh *BufferHead) Dirty() bool { return bh.TestFlag(BHDirty) }

// OverReleaseError reports a Put on a buffer whose reference count
// was already zero — the double-free (CWE-415) shape for refcounted
// objects. It carries enough context for an audit trail; the oops is
// still raised so legacy callers that ignore the return keep the old
// crash-on-misuse behavior.
type OverReleaseError struct {
	Block    uint64
	Refcount int // count observed at the failed release (always 0)
}

func (e *OverReleaseError) Error() string {
	return fmt.Sprintf("bufcache: over-release of buffer %d (refcount %d)", e.Block, e.Refcount)
}

// Put releases a reference (brelse / put_bh). A release of a buffer
// nobody holds returns *OverReleaseError and raises a generic oops, as
// brelse would warn. The CAS loop never publishes a negative count, so
// unlike a blind Add(-1)+restore there is no window where a concurrent
// reader observes the corrupted value.
func (bh *BufferHead) Put() error {
	tpPut.Emit(0, bh.Block, uint64(uint32(bh.refcount.Load())))
	for {
		old := bh.refcount.Load()
		if old <= 0 {
			kbase.Oops(kbase.OopsGeneric, "bufcache", "brelse of free buffer %d", bh.Block)
			bh.cache.overReleases.Add(1)
			return &OverReleaseError{Block: bh.Block, Refcount: int(old)}
		}
		if bh.refcount.CompareAndSwap(old, old-1) {
			return nil
		}
	}
}

// tryGet takes a reference unless eviction has claimed bh (refcount
// -1): the lockless hit's "increment unless negative".
func (bh *BufferHead) tryGet() bool {
	for {
		old := bh.refcount.Load()
		if old < 0 {
			return false
		}
		if bh.refcount.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// Refcount returns the current reference count.
//
//kerncheck:ignore deadexport refcount probe for the concurrent stress tests in pkg/safelinux
func (bh *BufferHead) Refcount() int { return int(bh.refcount.Load()) }

// lruList is a typed intrusive LRU list of buffer heads (front =
// most recent). Links live inside BufferHead, so traversal and
// removal never cast through an any-typed container element.
type lruList struct {
	front, back *BufferHead
	n           int
}

func (l *lruList) pushFront(bh *BufferHead) {
	l.n++
	bh.lruPrev = nil
	bh.lruNext = l.front
	if l.front != nil {
		l.front.lruPrev = bh
	}
	l.front = bh
	if l.back == nil {
		l.back = bh
	}
}

func (l *lruList) remove(bh *BufferHead) {
	l.n--
	if bh.lruPrev != nil {
		bh.lruPrev.lruNext = bh.lruNext
	} else {
		l.front = bh.lruNext
	}
	if bh.lruNext != nil {
		bh.lruNext.lruPrev = bh.lruPrev
	} else {
		l.back = bh.lruPrev
	}
	bh.lruPrev, bh.lruNext = nil, nil
}

func (l *lruList) moveToFront(bh *BufferHead) {
	if l.front == bh {
		return
	}
	l.remove(bh)
	l.pushFront(bh)
}

func (l *lruList) init() { *l = lruList{} }

// cacheShard is one stripe of the cache: the LRU order of the buffers
// hashed to it, and the dirty subset. hits is counted on the lockless
// path; the other counters under mu.
type cacheShard struct {
	mu    sync.Mutex
	lru   lruList
	dirty map[uint64]*BufferHead

	hits      atomic.Uint64
	misses    uint64
	writeback uint64
	evictions uint64
}

// Cache is the buffer cache over one block device.
type Cache struct {
	dev          *blockdev.Device
	maxBufs      int           // cache-wide capacity (0 = unbounded)
	size         atomic.Int64  // total buffers across shards
	overReleases atomic.Uint64 // Put calls rejected with OverReleaseError

	// engine is the kio engine SyncDirtyCtx and the journal's commit submit
	// through. Atomic: the kernel swaps in its own engine (SetEngine)
	// while callers may be loading it.
	engine atomic.Pointer[kio.Engine]

	// gate, when installed, wraps the public cache operations in a
	// crash-containment compartment (see boundary.go).
	gate atomic.Pointer[gate.Gate]

	shards [NumShards]cacheShard

	// table maps a block number to its buffer: entry block>>chunkBits
	// points to the chunk that holds the block's slot. A slot is written
	// only under its block's shard lock and read by lockless hits.
	table []atomic.Pointer[tableChunk]
}

// SetEngine replaces the cache's kio engine, through which SyncDirtyCtx
// and the journal's commit submit. The engine must drive the cache's
// device and must not be nil.
func (c *Cache) SetEngine(e *kio.Engine) { c.engine.Store(e) }

// Engine returns the cache's kio engine (never nil).
func (c *Cache) Engine() *kio.Engine { return c.engine.Load() }

// NewCache creates a cache over dev holding at most maxBufs buffers
// (0 means unbounded), with its own kio engine over dev.
func NewCache(dev *blockdev.Device, maxBufs int) *Cache {
	c := &Cache{dev: dev, maxBufs: maxBufs}
	c.engine.Store(kio.New(dev))
	c.table = make([]atomic.Pointer[tableChunk], (dev.Blocks()+1<<chunkBits-1)>>chunkBits)
	for i := range c.shards {
		c.shards[i].dirty = make(map[uint64]*BufferHead)
	}
	return c
}

func (c *Cache) shard(block uint64) *cacheShard {
	return &c.shards[block%NumShards]
}

// slot returns block's table slot, allocating its chunk when alloc is
// set and returning nil when it is not and the chunk does not exist.
// Chunks span shards, so the allocation is published by CAS.
func (c *Cache) slot(block uint64, alloc bool) *atomic.Pointer[BufferHead] {
	top := &c.table[block>>chunkBits]
	ch := top.Load()
	if ch == nil {
		if !alloc {
			return nil
		}
		ch = new(tableChunk)
		if !top.CompareAndSwap(nil, ch) {
			ch = top.Load()
		}
	}
	return &ch[block&(1<<chunkBits-1)]
}

// lookup returns the cached buffer for block with a new reference, or
// nil. It takes no lock: a buffer that eviction claimed reads as a
// miss.
func (c *Cache) lookup(block uint64) *BufferHead {
	sl := c.slot(block, false)
	if sl == nil {
		return nil
	}
	bh := sl.Load()
	if bh == nil || !bh.tryGet() {
		return nil
	}
	return bh
}

// hit records a cache hit on bh, which lookup returned.
func (c *Cache) hit(s *cacheShard, bh *BufferHead) {
	s.hits.Add(1)
	if !bh.referenced.Load() {
		bh.referenced.Store(true)
	}
	tpGet.Emit(0, bh.Block, 1)
}

// Device returns the underlying block device.
func (c *Cache) Device() *blockdev.Device { return c.dev }

// CollectMetrics enumerates the cache counters for the ktrace metrics
// registry (register with m.Register("bufcache", c.CollectMetrics)).
func (c *Cache) CollectMetrics(emit func(name string, value uint64)) {
	var hits, misses, writeback, evictions uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits.Load()
		misses += s.misses
		writeback += s.writeback
		evictions += s.evictions
		s.mu.Unlock()
	}
	emit("hits", hits)
	emit("misses", misses)
	emit("writeback", writeback)
	emit("evictions", evictions)
	emit("over_releases", c.overReleases.Load())
	emit("cached", uint64(c.Cached()))
	emit("dirty", uint64(c.DirtyCount()))
}

// doGetBlk returns the buffer for block without reading it from disk
// (getblk). The returned buffer holds a new reference.
func (c *Cache) doGetBlk(block uint64) (*BufferHead, kbase.Errno) {
	if block >= c.dev.Blocks() {
		return nil, kbase.EINVAL
	}
	s := c.shard(block)
	if bh := c.lookup(block); bh != nil {
		c.hit(s, bh)
		return bh, kbase.EOK
	}
	s.mu.Lock()
	// Under the shard lock no slot of this shard changes, so this lookup
	// is exact: a racing miss may have inserted the block.
	if bh := c.lookup(block); bh != nil {
		s.mu.Unlock()
		c.hit(s, bh)
		return bh, kbase.EOK
	}
	s.misses++
	tpGet.Emit(0, block, 0)
	for !c.reserve() {
		if c.evictOneLocked(s) {
			continue
		}
		// Nothing evictable in this block's shard; hunt the others
		// without holding our shard lock.
		s.mu.Unlock()
		if !c.evictAnyShard() {
			return nil, kbase.ENOBUFS
		}
		s.mu.Lock()
		if bh := c.lookup(block); bh != nil {
			// Someone else cached it while we hunted.
			s.mu.Unlock()
			return bh, kbase.EOK
		}
	}
	bh := &BufferHead{
		Block: block,
		Data:  make([]byte, c.dev.BlockSize()),
		cache: c,
	}
	bh.refcount.Store(1)
	s.lru.pushFront(bh)
	c.slot(block, true).Store(bh)
	s.mu.Unlock()
	return bh, kbase.EOK
}

// reserve counts one more buffer toward the capacity bound, or reports
// that the cache is full. The bound is exact: misses in different
// shards cannot both take the last free place.
func (c *Cache) reserve() bool {
	for {
		n := c.size.Load()
		if c.maxBufs > 0 && n >= int64(c.maxBufs) {
			return false
		}
		if c.size.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// evictOneLocked evicts one clean unreferenced buffer, scanning s's
// LRU list from the tail. A buffer hit since the last scan gets a
// second chance: the scan clears its referenced bit and moves it to
// the front, and a scan that reaches the front goes round again from
// the tail, so within its 2n steps it reaches every buffer a second
// time. The claim CAS (refcount 0 to -1) fails if a lockless hit took
// a reference first. MarkDirty sets BHDirty under s.mu, so the dirty
// test cannot go stale before the claim. Caller holds s.mu.
func (c *Cache) evictOneLocked(s *cacheShard) bool {
	bh := s.lru.back
	for steps := 2 * s.lru.n; bh != nil && steps > 0; steps-- {
		prev := bh.lruPrev
		if bh.referenced.Load() {
			bh.referenced.Store(false)
			s.lru.moveToFront(bh)
		} else if !bh.Dirty() && bh.refcount.CompareAndSwap(0, -1) {
			s.lru.remove(bh)
			c.slot(bh.Block, false).Store(nil)
			s.evictions++
			c.size.Add(-1)
			return true
		}
		if bh = prev; bh == nil {
			bh = s.lru.back
		}
	}
	return false
}

// evictAnyShard evicts one buffer from any shard, and fails only if
// every cached buffer is held or dirty. A first pass locks one shard at
// a time. Buffers can move behind it (another miss evicts ahead of the
// pass and caches its block in a shard already passed), so when it
// finds nothing a second pass holds every shard lock, under which no
// buffer is cached, evicted or dirtied. Shard locks are taken in index
// order; caller holds none.
func (c *Cache) evictAnyShard() bool {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		ok := c.evictOneLocked(s)
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	defer func() {
		for i := range c.shards {
			c.shards[i].mu.Unlock()
		}
	}()
	for i := range c.shards {
		if c.evictOneLocked(&c.shards[i]) {
			return true
		}
	}
	return false
}

// doBread returns an uptodate buffer for block, reading from disk if
// necessary (bread).
func (c *Cache) doBread(block uint64) (*BufferHead, kbase.Errno) {
	return c.doBreadCtx(nil, block)
}

func (c *Cache) doBreadCtx(task *kbase.Task, block uint64) (*BufferHead, kbase.Errno) {
	bh, err := c.doGetBlk(block)
	if err != kbase.EOK {
		return nil, err
	}
	if !bh.Uptodate() {
		if err := c.fill(task, bh); err != kbase.EOK {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
			return nil, err
		}
	}
	return bh, kbase.EOK
}

// fill reads a missed block in from the device — the op the
// bufcache:fill histogram times. Serialized per buffer so two tasks
// missing on the same block do not both copy from the device.
func (c *Cache) fill(task *kbase.Task, bh *BufferHead) kbase.Errno {
	t := opFill.Begin(task)
	defer t.End()
	bh.ioMu.Lock()
	defer bh.ioMu.Unlock()
	if bh.Uptodate() { // recheck: a racing Bread may have filled it
		return kbase.EOK
	}
	if err := c.dev.Read(bh.Block, bh.Data); err != kbase.EOK {
		return err
	}
	bh.SetFlag(BHUptodate | BHMapped | BHReq)
	return kbase.EOK
}

// doCopy moves p between the cache and the byte range that starts off
// bytes into blocks[0], block by block: into the cache when in is set,
// out of it otherwise. It returns the bytes moved before any error;
// off must lie inside a block.
func (c *Cache) doCopy(task *kbase.Task, blocks []uint64, off int, p []byte, in bool) (int, kbase.Errno) {
	bs := c.dev.BlockSize()
	if off < 0 || off >= bs {
		return 0, kbase.EINVAL
	}
	n := 0
	for _, block := range blocks {
		if n == len(p) {
			break
		}
		chunk := p[n:min(len(p), n+bs-off)]
		var err kbase.Errno
		if in {
			err = c.copyInBlock(task, block, off, chunk)
		} else {
			err = c.copyOutBlock(task, block, off, chunk)
		}
		if err != kbase.EOK {
			return n, err
		}
		n += len(chunk)
		off = 0
	}
	if n < len(p) {
		return n, kbase.EINVAL
	}
	return n, kbase.EOK
}

// copyOutBlock copies block's bytes from off into p; a hole (block 0)
// reads as zeros.
func (c *Cache) copyOutBlock(task *kbase.Task, block uint64, off int, p []byte) kbase.Errno {
	if block == 0 {
		clear(p)
		return kbase.EOK
	}
	bh, err := c.doBreadCtx(task, block)
	if err != kbase.EOK {
		return err
	}
	defer bh.Put()
	copy(p, bh.Data[off:])
	return kbase.EOK
}

// copyInBlock copies p into block at off and marks the buffer dirty. A
// whole-block overwrite skips the read.
func (c *Cache) copyInBlock(task *kbase.Task, block uint64, off int, p []byte) kbase.Errno {
	if block == 0 {
		return kbase.EINVAL
	}
	var bh *BufferHead
	var err kbase.Errno
	if off == 0 && len(p) == c.dev.BlockSize() {
		if bh, err = c.doGetBlk(block); err == kbase.EOK {
			bh.SetFlag(BHMapped | BHUptodate)
		}
	} else {
		bh, err = c.doBreadCtx(task, block)
	}
	if err != kbase.EOK {
		return err
	}
	defer bh.Put()
	copy(bh.Data[off:], p)
	bh.MarkDirty()
	return kbase.EOK
}

// checkMapped refuses to submit an unmapped buffer: writing one is the
// classic flag-protocol violation, on which Linux would hit a BUG in
// submit_bh.
func checkMapped(bh *BufferHead) kbase.Errno {
	f := bh.Flags()
	if f&(BHMapped|BHNew) != 0 {
		return kbase.EOK
	}
	kbase.Oops(kbase.OopsSemantic, "bufcache",
		"submit of unmapped buffer %d (flags %04x)", bh.Block, f)
	return kbase.EINVAL
}

// written records a completed write of bh: clean, submitted, off the
// dirty list.
func (c *Cache) written(bh *BufferHead) {
	s := c.shard(bh.Block)
	s.mu.Lock()
	bh.update(BHReq, BHDirty|BHNew)
	s.undirtyLocked(bh)
	s.writeback++
	s.mu.Unlock()
	tpWriteback.Emit(0, bh.Block, 0)
}

// doSyncDirtyCtx writes every dirty buffer and issues the trailing
// device flush.
func (c *Cache) doSyncDirtyCtx(task *kbase.Task) kbase.Errno {
	var toWrite []*BufferHead
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, bh := range s.dirty {
			toWrite = append(toWrite, bh)
		}
		s.mu.Unlock()
	}
	return c.writeBack(task, toWrite)
}

// doSyncBlocksCtx writes the dirty buffers among blocks (clean and
// uncached blocks are skipped) and issues the trailing device flush.
func (c *Cache) doSyncBlocksCtx(task *kbase.Task, blocks []uint64) kbase.Errno {
	toWrite := make([]*BufferHead, 0, len(blocks))
	for _, block := range blocks {
		s := c.shard(block)
		s.mu.Lock()
		if bh, ok := s.dirty[block]; ok {
			toWrite = append(toWrite, bh)
		}
		s.mu.Unlock()
	}
	return c.writeBack(task, toWrite)
}

// writeBack is the one writeback routine: it submits toWrite on one
// kio batch closed by a barrier SQE, which stands in for the trailing
// device flush, and executes the batch with a single Submit. Each
// buffer written goes clean; a failed write sets BHWriteEIO.
func (c *Cache) writeBack(task *kbase.Task, toWrite []*BufferHead) kbase.Errno {
	bt := kio.OpBatch.Begin(task)
	defer bt.End()
	var firstErr kbase.Errno = kbase.EOK
	b := c.Engine().NewBatch()
	defer b.Release()
	queued := make([]*BufferHead, 0, len(toWrite))
	for _, bh := range toWrite {
		err := checkMapped(bh)
		if err == kbase.EOK {
			err = b.Write(bh.Block, bh.Data, uint64(len(queued)))
		}
		if err != kbase.EOK {
			if firstErr == kbase.EOK {
				firstErr = err
			}
			continue
		}
		queued = append(queued, bh)
	}
	b.Barrier(0)
	for _, cqe := range b.Submit().Wait() {
		if cqe.Err != kbase.EOK {
			if cqe.Op == kio.OpWrite {
				queued[cqe.User].SetFlag(BHWriteEIO)
			}
			if firstErr == kbase.EOK {
				firstErr = cqe.Err
			}
			continue
		}
		if cqe.Op == kio.OpWrite {
			c.written(queued[cqe.User])
		}
	}
	return firstErr
}

// DirtyCount returns the number of dirty buffers.
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.dirty)
		s.mu.Unlock()
	}
	return n
}

// DirtyPressure reports whether dirty buffers fill at least half of a
// bounded cache: dirty buffers cannot be evicted, so past this point
// writers should start writeback (balance_dirty_pages). An unbounded
// cache never reports pressure.
func (c *Cache) DirtyPressure() bool {
	return c.maxBufs > 0 && 2*c.DirtyCount() >= c.maxBufs
}

// Forget drops a buffer from the cache without writing it
// (bforget) — used by the journal for revoked blocks.
func (c *Cache) Forget(bh *BufferHead) {
	s := c.shard(bh.Block)
	s.mu.Lock()
	bh.ClearFlag(BHDirty)
	s.undirtyLocked(bh)
	s.mu.Unlock()
}

// undirtyLocked takes bh off the dirty list, unless another head of its
// block (one that replaced bh after an Invalidate) is listed there.
// Caller holds s.mu.
func (s *cacheShard) undirtyLocked(bh *BufferHead) {
	if s.dirty[bh.Block] == bh {
		delete(s.dirty, bh.Block)
	}
}

// Invalidate drops every buffer the journal does not hold — the
// buffer-cache restart: readers re-fetch from the device, and unflushed
// data writes are lost as in a crash. A journal-held buffer stays, as
// jbd2's journal_head pins its buffer_head: one joined to the running
// transaction, whose changes its commit must still log, and dirty
// metadata a commit logged and the next checkpoint must write home.
// Either image exists nowhere else the file system reads. A simulated
// crash loses those too: crash tests build a fresh cache over the
// crashed device instead. A dropped buffer nobody holds is claimed as
// eviction claims one, so a racing lockless hit cannot take it; one
// still held leaves the cache with its holder.
func (c *Cache) Invalidate() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var held []*BufferHead
		dropped := 0
		for bh := s.lru.back; bh != nil; bh = bh.lruPrev {
			if bh.journalHeld() {
				held = append(held, bh)
				continue
			}
			c.slot(bh.Block, false).Store(nil)
			bh.refcount.CompareAndSwap(0, -1)
			dropped++
		}
		clear(s.dirty)
		s.lru.init()
		for _, bh := range held { // back to front: LRU order survives
			s.lru.pushFront(bh)
			if bh.Dirty() {
				s.dirty[bh.Block] = bh
			}
		}
		c.size.Add(-int64(dropped))
		s.mu.Unlock()
	}
}

// journalHeld reports whether the journal holds bh: joined to the
// running transaction, or dirty metadata awaiting its checkpoint.
func (bh *BufferHead) journalHeld() bool {
	return bh.journalSeq.Load() != 0 || bh.Flags()&(BHDirty|BHMeta) == BHDirty|BHMeta
}

// Cached returns the number of buffers currently in the cache.
func (c *Cache) Cached() int {
	return int(c.size.Load())
}
