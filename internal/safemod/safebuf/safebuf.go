// Package safebuf is the ownership-safe replacement for the legacy
// buffer cache (internal/linuxlike/bufcache). Where buffer_head
// exposes sixteen free-form flags and a raw shared Data slice, safebuf
// gives each cached block an explicit state machine (the valid region
// of the flag space, made into a type) and hands data access out only
// through ownership capabilities: exclusive borrows for writers,
// shared borrows for readers. The flag-protocol bugs the paper's §4.4
// describes — writing unmapped buffers, dirtying invalid data,
// concurrent flag stomps — are unrepresentable.
//
//kerncheck:ignore deadexport paper artifact (§4.4): the safe buffer cache is demonstrated by its tests, no kernel stack mounts it yet
package safebuf

import (
	"fmt"
	"sync"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/module"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
)

// Tracepoints for the ownership-safe cache (catalog in DESIGN.md).
var (
	tpSafeGet       = ktrace.New("safebuf:get")       // a0=block, a1=1 on hit
	tpSafeWriteback = ktrace.New("safebuf:writeback") // a0=block
)

// BufState is the explicit buffer state machine. Compare with the
// 2^16 flag combinations of the legacy cache: these five states are
// the valid region, and transitions are checked.
type BufState uint8

// Buffer states.
const (
	StateEmpty   BufState = iota // allocated, no valid data
	StateClean                   // valid data matching disk
	StateDirty                   // valid data newer than disk
	StateWriting                 // writeback in progress
	StateError                   // last I/O failed
)

var stateNames = map[BufState]string{
	StateEmpty: "empty", StateClean: "clean", StateDirty: "dirty",
	StateWriting: "writing", StateError: "error",
}

func (s BufState) String() string { return stateNames[s] }

// validTransitions is the whole protocol, in one place — the
// machine-checkable contract §4.4 asks for.
var validTransitions = map[BufState][]BufState{
	StateEmpty:   {StateClean, StateDirty, StateError},
	StateClean:   {StateDirty, StateEmpty, StateError},
	StateDirty:   {StateWriting},
	StateWriting: {StateClean, StateError, StateDirty},
	StateError:   {StateEmpty, StateClean, StateDirty},
}

func canTransition(from, to BufState) bool {
	for _, t := range validTransitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// Buffer is one cached block. Its payload lives in an ownership cell;
// the only way to the bytes is through Read/Write capabilities.
type Buffer struct {
	Block uint64

	mu    sync.Mutex
	state BufState
	data  own.Owned[[]byte]
	cache *Cache
}

// State returns the current state.
func (b *Buffer) State() BufState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transition moves the state machine, reporting invalid transitions
// as semantic oopses and refusing them.
func (b *Buffer) transition(to BufState) kbase.Errno {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transitionLocked(to)
}

func (b *Buffer) transitionLocked(to BufState) kbase.Errno {
	if !canTransition(b.state, to) {
		kbase.Oops(kbase.OopsSemantic, "safebuf",
			"invalid transition %s -> %s on block %d", b.state, to, b.Block)
		return kbase.EINVAL
	}
	b.state = to
	return kbase.EOK
}

// Read grants shared read access to the block contents. Empty
// buffers cannot be read (there is nothing valid to see) — the
// compile-time analogue is "no BHUptodate, no access".
func (b *Buffer) Read(f func(data []byte)) kbase.Errno {
	b.mu.Lock()
	if b.state == StateEmpty || b.state == StateError {
		st := b.state
		b.mu.Unlock()
		return stateErr(st)
	}
	ref, ok := b.data.Borrow()
	b.mu.Unlock()
	if !ok {
		return kbase.EBUSY
	}
	defer ref.Release()
	ref.With(func(p *[]byte) { f(*p) })
	return kbase.EOK
}

// Write grants exclusive mutable access and marks the buffer dirty.
func (b *Buffer) Write(f func(data []byte)) kbase.Errno {
	b.mu.Lock()
	if b.state == StateWriting {
		b.mu.Unlock()
		return kbase.EBUSY
	}
	mut, ok := b.data.BorrowMut()
	if !ok {
		b.mu.Unlock()
		return kbase.EBUSY
	}
	if b.state != StateDirty {
		if err := b.transitionLocked(StateDirty); err != kbase.EOK {
			b.mu.Unlock()
			mut.Release()
			return err
		}
	}
	b.mu.Unlock()
	defer mut.Release()
	mut.Update(func(p *[]byte) { f(*p) })
	b.cache.noteDirty(b)
	return kbase.EOK
}

func stateErr(s BufState) kbase.Errno {
	if s == StateError {
		return kbase.EIO
	}
	return kbase.EINVAL
}

// NumShards is the number of independent cache segments; blocks map
// to shards by block % NumShards so concurrent Get/Sync traffic on
// different blocks does not serialize on one lock (the same striping
// the legacy cache got in its blk-mq refactor).
const NumShards = 16

// cacheShard is one lock-striped segment of the cache.
type cacheShard struct {
	mu      sync.Mutex
	buffers map[uint64]*Buffer
	dirty   map[uint64]*Buffer
	stats   struct{ Hits, Misses, Writeback uint64 }
}

// Cache is the ownership-safe buffer cache over an axiomatically
// modeled disk (the shim boundary to the unverified device).
type Cache struct {
	disk    spec.DiskLike
	checker *own.Checker

	shards [NumShards]cacheShard
}

// NewCache creates a cache over disk; ownership violations are
// reported to checker.
func NewCache(disk spec.DiskLike, checker *own.Checker) *Cache {
	c := &Cache{disk: disk, checker: checker}
	for i := range c.shards {
		c.shards[i].buffers = make(map[uint64]*Buffer)
		c.shards[i].dirty = make(map[uint64]*Buffer)
	}
	return c
}

func (c *Cache) shard(block uint64) *cacheShard {
	return &c.shards[block%NumShards]
}

// CollectMetrics enumerates the cache counters for the ktrace metrics
// registry (register with m.Register("safebuf", c.CollectMetrics)).
func (c *Cache) CollectMetrics(emit func(name string, value uint64)) {
	var hits, misses, writeback uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.stats.Hits
		misses += s.stats.Misses
		writeback += s.stats.Writeback
		s.mu.Unlock()
	}
	emit("hits", hits)
	emit("misses", misses)
	emit("writeback", writeback)
	emit("dirty", uint64(c.DirtyCount()))
}

// Get returns the buffer for block, reading it from disk on first
// use (there is no "get without read" — an Empty buffer would be
// unreadable anyway, so the API removes the distinction that caused
// the unmapped-submit bug class).
func (c *Cache) Get(block uint64) (*Buffer, kbase.Errno) {
	if block >= c.disk.Blocks() {
		return nil, kbase.EINVAL
	}
	s := c.shard(block)
	s.mu.Lock()
	if b, ok := s.buffers[block]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		tpSafeGet.Emit(0, block, 1)
		return b, kbase.EOK
	}
	s.stats.Misses++
	s.mu.Unlock()
	tpSafeGet.Emit(0, block, 0)

	data := make([]byte, c.disk.BlockSize())
	if err := c.disk.Read(block, data); err != kbase.EOK {
		return nil, err
	}
	b := &Buffer{
		Block: block,
		state: StateClean,
		data:  own.New(c.checker, fmt.Sprintf("safebuf.block.%d", block), data),
		cache: c,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.buffers[block]; ok {
		// Raced with another loader; theirs wins, ours is freed.
		b.data.Free()
		return existing, kbase.EOK
	}
	s.buffers[block] = b
	return b, kbase.EOK
}

// GetZero returns the buffer for block initialized to zeros without
// reading disk — for freshly allocated blocks. The buffer starts
// Dirty (its contents supersede disk).
func (c *Cache) GetZero(block uint64) (*Buffer, kbase.Errno) {
	if block >= c.disk.Blocks() {
		return nil, kbase.EINVAL
	}
	s := c.shard(block)
	s.mu.Lock()
	if b, ok := s.buffers[block]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		// Zero it through the capability.
		err := b.Write(func(data []byte) {
			for i := range data {
				data[i] = 0
			}
		})
		return b, err
	}
	defer s.mu.Unlock()
	b := &Buffer{
		Block: block,
		state: StateDirty,
		data:  own.New(c.checker, fmt.Sprintf("safebuf.block.%d", block), make([]byte, c.disk.BlockSize())),
		cache: c,
	}
	s.buffers[block] = b
	s.dirty[block] = b
	return b, kbase.EOK
}

func (c *Cache) noteDirty(b *Buffer) {
	s := c.shard(b.Block)
	s.mu.Lock()
	s.dirty[b.Block] = b
	s.mu.Unlock()
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

// Sync writes every dirty buffer through the state machine
// (Dirty→Writing→Clean) and issues a flush barrier.
func (c *Cache) Sync() kbase.Errno {
	var toWrite []*Buffer
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, b := range s.dirty {
			toWrite = append(toWrite, b)
		}
		s.mu.Unlock()
	}
	for _, b := range toWrite {
		if err := c.writeOne(b); err != kbase.EOK {
			return err
		}
	}
	return c.disk.Flush()
}

func (c *Cache) writeOne(b *Buffer) kbase.Errno {
	if err := b.transition(StateWriting); err != kbase.EOK {
		return err
	}
	var ioErr kbase.Errno = kbase.EOK
	ref, ok := b.data.Borrow()
	if !ok {
		b.transition(StateError)
		return kbase.EBUSY
	}
	ref.With(func(p *[]byte) {
		ioErr = c.disk.Write(b.Block, *p)
	})
	ref.Release()
	if ioErr != kbase.EOK {
		b.transition(StateError)
		return ioErr
	}
	if err := b.transition(StateClean); err != kbase.EOK {
		return err
	}
	s := c.shard(b.Block)
	s.mu.Lock()
	delete(s.dirty, b.Block)
	s.stats.Writeback++
	s.mu.Unlock()
	tpSafeWriteback.Emit(0, b.Block, 0)
	return kbase.EOK
}

// Drop releases all buffers (unmount), freeing their ownership cells
// so the leak detector sees a clean shutdown.
func (c *Cache) Drop() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, b := range s.buffers {
			b.data.Free()
		}
		s.buffers = make(map[uint64]*Buffer)
		s.dirty = make(map[uint64]*Buffer)
		s.mu.Unlock()
	}
}

// --- module framework registration ---

// Module adapts the cache constructor for the module registry.
type Module struct{}

// IfaceName is the registry interface this module implements.
const IfaceName = "storage.buffercache"

// ModuleName implements module.Module.
func (Module) ModuleName() string { return "safebuf" }

// Implements implements module.Module.
func (Module) Implements() module.Interface {
	return module.Interface{
		Name: IfaceName, Version: 1,
		Doc:     "block buffer cache with checked state machine",
		Methods: []string{"Get", "GetZero", "Sync", "Drop"},
	}
}

// Level implements module.Module.
func (Module) Level() module.SafetyLevel { return module.LevelOwnershipSafe }

// New creates a cache instance (the module's factory method).
func (Module) New(disk spec.DiskLike, checker *own.Checker) *Cache {
	return NewCache(disk, checker)
}
