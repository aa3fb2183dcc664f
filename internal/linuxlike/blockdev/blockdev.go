// Package blockdev simulates a block storage device for the
// Linux-like kernel: block-addressed read/write with a volatile write
// cache, explicit flush barriers, a latency model driving the
// simulated clock, injectable I/O faults, and a crash model that
// drops or tears unflushed writes.
//
// The crash model is what the functional-correctness experiments
// (paper §4.4: "recover to the last synced version given any crash")
// exercise: writes issued after the last Flush may be applied in any
// subset, and a block may be torn (partially applied) at a configured
// granularity, exactly the failure envelope journaling file systems
// are designed for.
//
// Concurrency model (blk-mq style): device state is lock-striped into
// NumShards shards keyed by block % NumShards. Each shard owns the
// pending-write submission queue and the durable slots for its blocks,
// so reads and writes to different shards never contend. A global
// atomic sequence number stamps every cached write, which lets the
// crash model (Crash, CrashApplySubset) and Snapshot reconstruct the
// exact global issue order. Flush needs only per-block order, which
// each shard's queue already holds.
package blockdev

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// Tracepoints (args documented in DESIGN.md's catalog): submission
// and completion are one event on this synchronous device.
var (
	tpRead  = ktrace.New("blockdev:read")  // a0=block
	tpWrite = ktrace.New("blockdev:write") // a0=block
	tpFlush = ktrace.New("blockdev:flush") // a0=writes made durable
	tpCrash = ktrace.New("blockdev:crash") // a0=writes dropped, a1=blocks torn
)

// NumShards is the lock-striping factor for device state. Sixteen
// shards keeps per-shard contention negligible for the goroutine
// counts the benchmarks use while keeping whole-device operations
// (flush, crash, snapshot) cheap.
const NumShards = 16

// Config describes a simulated device.
type Config struct {
	Blocks    uint64 // device capacity in blocks
	BlockSize int    // bytes per block (default 4096)
	// Latency in jiffies charged to the clock per operation.
	ReadCost  uint64
	WriteCost uint64
	FlushCost uint64
	// TornWriteUnit is the granularity at which a crash can tear a
	// block (default: BlockSize/8). Zero means "use default".
	TornWriteUnit int
	Clock         *kbase.Clock
	Rng           *kbase.Rng
}

func (c *Config) fill() {
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
	if c.TornWriteUnit == 0 {
		c.TornWriteUnit = c.BlockSize / 8
	}
	if c.Clock == nil {
		c.Clock = kbase.NewClock()
	}
	if c.Rng == nil {
		c.Rng = kbase.NewRng(1)
	}
}

// Stats counts device activity.
type Stats struct {
	Reads   uint64
	Writes  uint64
	Flushes uint64
	Crashes uint64
	// TornBlocks counts blocks torn across all crashes.
	TornBlocks uint64
	// DroppedWrites counts cached writes lost to crashes.
	DroppedWrites uint64
}

// pendingWrite is one cached, not-yet-durable write. seq is the
// global issue order across all shards.
type pendingWrite struct {
	seq   uint64
	block uint64
	data  []byte
}

// shard is one stripe of device state: the submission queue plus the
// durable slots for blocks hashed to it. durable slots live in the
// device-wide slice but slot b is guarded by shard(b)'s mutex.
type shard struct {
	mu      sync.Mutex
	pending []pendingWrite
}

// Device is a simulated block device. All methods are safe for
// concurrent use.
type Device struct {
	cfg Config

	shards  [NumShards]shard
	durable [][]byte // nil entry = all-zero block; slot b guarded by shards[b%NumShards]
	seq     atomic.Uint64

	reads   atomic.Uint64
	writes  atomic.Uint64
	flushes atomic.Uint64
	crashes atomic.Uint64
	torn    atomic.Uint64
	dropped atomic.Uint64

	// fault injection, guarded by ctl (never held together with a
	// shard lock except ctl -> shard).
	ctl        sync.Mutex
	failReads  int // fail the next N reads with EIO
	failWrites int
	badBlocks  map[uint64]bool
	readOnly   bool
}

// New creates a device. It panics on a zero-capacity config, which is
// always a harness bug.
func New(cfg Config) *Device {
	cfg.fill()
	if cfg.Blocks == 0 {
		panic("blockdev: zero-capacity device")
	}
	return &Device{
		cfg:       cfg,
		durable:   make([][]byte, cfg.Blocks),
		badBlocks: make(map[uint64]bool),
	}
}

func (d *Device) shard(block uint64) *shard {
	return &d.shards[block%NumShards]
}

// lockAll acquires every shard lock in index order, for whole-device
// operations. The fixed order keeps shard locks deadlock-free.
func (d *Device) lockAll() {
	for i := range d.shards {
		d.shards[i].mu.Lock()
	}
}

func (d *Device) unlockAll() {
	for i := range d.shards {
		d.shards[i].mu.Unlock()
	}
}

// pendingInOrderLocked returns every cached write sorted by global
// issue order. Caller holds all shard locks.
func (d *Device) pendingInOrderLocked() []pendingWrite {
	var all []pendingWrite
	for i := range d.shards {
		all = append(all, d.shards[i].pending...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	return all
}

func (d *Device) clearPendingLocked() {
	for i := range d.shards {
		d.shards[i].pending = nil
	}
}

// BlockSize returns bytes per block.
func (d *Device) BlockSize() int { return d.cfg.BlockSize }

// Blocks returns the device capacity in blocks.
func (d *Device) Blocks() uint64 { return d.cfg.Blocks }

// Stats returns a snapshot of the device counters. It is the legacy
// shim over the same counters CollectMetrics registers on the unified
// metrics plane.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:         d.reads.Load(),
		Writes:        d.writes.Load(),
		Flushes:       d.flushes.Load(),
		Crashes:       d.crashes.Load(),
		TornBlocks:    d.torn.Load(),
		DroppedWrites: d.dropped.Load(),
	}
}

// CollectMetrics enumerates the device counters for the ktrace
// metrics registry (register with m.Register("blockdev", d.CollectMetrics)).
func (d *Device) CollectMetrics(emit func(name string, value uint64)) {
	emit("reads", d.reads.Load())
	emit("writes", d.writes.Load())
	emit("flushes", d.flushes.Load())
	emit("crashes", d.crashes.Load())
	emit("torn_blocks", d.torn.Load())
	emit("dropped_writes", d.dropped.Load())
	emit("pending_writes", uint64(d.PendingWrites()))
}

// SetReadOnly marks the device read-only; writes fail with EROFS.
func (d *Device) SetReadOnly(ro bool) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	d.readOnly = ro
}

// FailNextReads makes the next n reads fail with EIO.
func (d *Device) FailNextReads(n int) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	d.failReads = n
}

// FailNextWrites makes the next n writes fail with EIO.
func (d *Device) FailNextWrites(n int) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	d.failWrites = n
}

// MarkBad makes a specific block permanently unreadable/unwritable.
func (d *Device) MarkBad(block uint64) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	d.badBlocks[block] = true
}

// readFault applies the read-side fault model for one block.
func (d *Device) readFault(block uint64) kbase.Errno {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.failReads > 0 {
		d.failReads--
		return kbase.EIO
	}
	if d.badBlocks[block] {
		return kbase.EIO
	}
	return kbase.EOK
}

// writeFault applies the write-side fault model for one block.
// Caller holds d.ctl.
func (d *Device) writeFaultLocked(block uint64) kbase.Errno {
	if d.readOnly {
		return kbase.EROFS
	}
	if d.failWrites > 0 {
		d.failWrites--
		return kbase.EIO
	}
	if d.badBlocks[block] {
		return kbase.EIO
	}
	return kbase.EOK
}

// Read copies block into buf, observing the write cache (a read sees
// the most recent cached write, as a real device's cache would serve
// it). buf must be exactly one block long.
func (d *Device) Read(block uint64, buf []byte) kbase.Errno {
	if len(buf) != d.cfg.BlockSize {
		return kbase.EINVAL
	}
	if block >= d.cfg.Blocks {
		return kbase.EINVAL
	}
	if err := d.readFault(block); err != kbase.EOK {
		return err
	}
	d.reads.Add(1)
	d.cfg.Clock.Advance(d.cfg.ReadCost)
	tpRead.Emit(0, block, 0)
	s := d.shard(block)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Most recent cached write wins — by global sequence, since
	// concurrent submitters may append to the shard queue slightly out
	// of seq order.
	var newest *pendingWrite
	for i := range s.pending {
		if s.pending[i].block == block && (newest == nil || s.pending[i].seq > newest.seq) {
			newest = &s.pending[i]
		}
	}
	if newest != nil {
		copy(buf, newest.data)
		return kbase.EOK
	}
	if d.durable[block] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return kbase.EOK
	}
	copy(buf, d.durable[block])
	return kbase.EOK
}

// Write caches one block write. Data becomes durable only after
// Flush. data must be exactly one block long; the device copies it.
func (d *Device) Write(block uint64, data []byte) kbase.Errno {
	if len(data) != d.cfg.BlockSize {
		return kbase.EINVAL
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return d.WriteOwned(block, cp)
}

// WriteOwned caches one block write WITHOUT copying: the device takes
// ownership of data, which the caller must not read or mutate again
// (the buffer may become the durable image itself). This is the
// zero-copy submission path the kio engine's ownership-move writes use
// (§4.3: ownership transfer is message passing without the copy);
// Write is the defensive-copy wrapper over it.
func (d *Device) WriteOwned(block uint64, data []byte) kbase.Errno {
	if len(data) != d.cfg.BlockSize {
		return kbase.EINVAL
	}
	if block >= d.cfg.Blocks {
		return kbase.EINVAL
	}
	d.ctl.Lock()
	err := d.writeFaultLocked(block)
	d.ctl.Unlock()
	if err != kbase.EOK {
		return err
	}
	d.writes.Add(1)
	d.cfg.Clock.Advance(d.cfg.WriteCost)
	tpWrite.Emit(0, block, 0)
	w := pendingWrite{seq: d.seq.Add(1), block: block, data: data}
	s := d.shard(block)
	s.mu.Lock()
	s.pending = append(s.pending, w)
	s.mu.Unlock()
	return kbase.EOK
}

// Flush commits every cached write to durable storage, in order. It
// is the device-level barrier (FUA/flush).
func (d *Device) Flush() kbase.Errno {
	d.flushes.Add(1)
	d.cfg.Clock.Advance(d.cfg.FlushCost)
	d.lockAll()
	defer d.unlockAll()
	// Every write to a block queues on that block's shard, so applying
	// each shard's queue in issue order makes the last write to every
	// block win; no cross-shard merge is needed. A queue is sorted only
	// when concurrent submitters appended it slightly out of order.
	n := 0
	for i := range d.shards {
		q := d.shards[i].pending
		bySeq := func(a, b int) bool { return q[a].seq < q[b].seq }
		if !sort.SliceIsSorted(q, bySeq) {
			sort.Slice(q, bySeq)
		}
		for _, w := range q {
			d.durable[w.block] = w.data
		}
		n += len(q)
		// nil, not q[:0]: a reused backing array would keep the
		// applied blocks' data reachable until overwritten.
		d.shards[i].pending = nil
	}
	tpFlush.Emit(0, uint64(n), 0)
	return kbase.EOK
}

// PendingWrites returns the number of cached, non-durable writes.
func (d *Device) PendingWrites() int {
	d.lockAll()
	defer d.unlockAll()
	n := 0
	for i := range d.shards {
		n += len(d.shards[i].pending)
	}
	return n
}

// Crash simulates power loss: each cached write is independently
// applied or dropped, and an applied write may be torn — only a
// prefix of its TornWriteUnit-sized fragments lands. The write cache
// is then discarded. Determinism comes from the device Rng, which is
// consumed in global issue order.
func (d *Device) Crash() {
	d.crashes.Add(1)
	d.lockAll()
	defer d.unlockAll()
	for _, w := range d.pendingInOrderLocked() {
		switch {
		case d.cfg.Rng.Bool(0.5): // dropped entirely
			d.dropped.Add(1)
		case d.cfg.Rng.Bool(0.25): // applied torn
			d.torn.Add(1)
			dst := d.durableFor(w.block)
			unit := d.cfg.TornWriteUnit
			keep := (1 + d.cfg.Rng.Intn(max(d.cfg.BlockSize/unit-1, 1))) * unit
			copy(dst[:keep], w.data[:keep])
		default: // applied fully
			d.durable[w.block] = w.data
		}
	}
	d.clearPendingLocked()
	tpCrash.Emit(0, d.dropped.Load(), d.torn.Load())
}

// CrashApplyNone simulates a crash where no cached write survives —
// the worst case for durability testing.
func (d *Device) CrashApplyNone() {
	d.crashes.Add(1)
	d.lockAll()
	defer d.unlockAll()
	for i := range d.shards {
		d.dropped.Add(uint64(len(d.shards[i].pending)))
	}
	d.clearPendingLocked()
}

// CrashApplySubset applies exactly the cached writes whose indices are
// in keep (in issue order) and drops the rest — used by the
// exhaustive crash explorer to enumerate every crash state.
func (d *Device) CrashApplySubset(keep map[int]bool) {
	d.crashes.Add(1)
	d.lockAll()
	defer d.unlockAll()
	for i, w := range d.pendingInOrderLocked() {
		if keep[i] {
			d.durable[w.block] = w.data
		} else {
			d.dropped.Add(1)
		}
	}
	d.clearPendingLocked()
}

// durableFor returns a mutable durable image for block, materializing
// a zero block if needed. Caller holds the block's shard lock.
func (d *Device) durableFor(block uint64) []byte {
	if d.durable[block] == nil {
		d.durable[block] = make([]byte, d.cfg.BlockSize)
	}
	return d.durable[block]
}

// Snapshot captures the durable image plus cached writes so an
// explorer can rewind the device. The snapshot is independent of
// future device mutation.
func (d *Device) Snapshot() *Snapshot {
	d.lockAll()
	defer d.unlockAll()
	pending := d.pendingInOrderLocked()
	s := &Snapshot{
		durable: make([][]byte, len(d.durable)),
		pending: make([]pendingWrite, len(pending)),
	}
	for i, b := range d.durable {
		if b != nil {
			cp := make([]byte, len(b))
			copy(cp, b)
			s.durable[i] = cp
		}
	}
	for i, w := range pending {
		cp := make([]byte, len(w.data))
		copy(cp, w.data)
		s.pending[i] = pendingWrite{seq: w.seq, block: w.block, data: cp}
	}
	return s
}

// Restore rewinds the device to a snapshot taken from it.
func (d *Device) Restore(s *Snapshot) {
	d.lockAll()
	defer d.unlockAll()
	if len(s.durable) != len(d.durable) {
		panic(fmt.Sprintf("blockdev: restoring snapshot of %d blocks onto %d-block device",
			len(s.durable), len(d.durable)))
	}
	d.durable = make([][]byte, len(s.durable))
	for i, b := range s.durable {
		if b != nil {
			cp := make([]byte, len(b))
			copy(cp, b)
			d.durable[i] = cp
		}
	}
	d.clearPendingLocked()
	var maxSeq uint64
	for _, w := range s.pending {
		cp := make([]byte, len(w.data))
		copy(cp, w.data)
		sh := d.shard(w.block)
		sh.pending = append(sh.pending, pendingWrite{seq: w.seq, block: w.block, data: cp})
		if w.seq > maxSeq {
			maxSeq = w.seq
		}
	}
	if d.seq.Load() < maxSeq {
		d.seq.Store(maxSeq)
	}
}

// Snapshot is an immutable device image.
type Snapshot struct {
	durable [][]byte
	pending []pendingWrite
}

// PendingCount returns the number of cached writes in the snapshot.
func (s *Snapshot) PendingCount() int { return len(s.pending) }
