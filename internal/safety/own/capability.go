package own

import (
	"sync"

	"safelinux/internal/linuxlike/ktrace"
)

// Tracepoints for the ownership layer (catalog in DESIGN.md). Labels
// travel as FNV-1a hashes: events carry no strings.
var (
	tpMove   = ktrace.New("own:move")   // a0=label hash, a1=new generation
	tpBorrow = ktrace.New("own:borrow") // a0=label hash, a1=1 exclusive / 0 shared
)

// cell is the shared heart of one owned value: the payload plus the
// dynamic capability state. All three capability types point at the
// same cell; the cell's mutex makes every checked access atomic, so a
// contract violation is detected before any real data race can occur.
type cell[T any] struct {
	mu      sync.Mutex
	val     T
	freed   bool
	owner   uint64 // generation of the currently valid Owned handle
	nextGen uint64
	readers int  // outstanding shared borrows
	writer  bool // outstanding exclusive borrow
	label   string
	checker *Checker
}

func (c *cell[T]) cellLabel() string { return c.label }
func (c *cell[T]) cellFreed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freed
}

// Owned is the owning capability (sharing model 1 transfers it).
// The zero Owned is invalid; construct with New. Owned is a small
// handle: copying it does NOT duplicate ownership — all copies share
// the same generation, and Move invalidates them together.
type Owned[T any] struct {
	c   *cell[T]
	gen uint64
}

// New allocates an owned value tracked by checker.
func New[T any](checker *Checker, label string, v T) Owned[T] {
	c := &cell[T]{val: v, owner: 1, nextGen: 1, label: label, checker: checker}
	if checker != nil {
		checker.trackCell(c)
	}
	return Owned[T]{c: c, gen: 1}
}

// violate is a helper for reporting against this cell.
func (c *cell[T]) violate(kind ViolationKind, op, detail string) {
	if c.checker != nil {
		c.checker.report(Violation{Kind: kind, Label: c.label, Op: op, Detail: detail})
	}
}

// check validates that the handle is the current owner of a live
// cell. Caller holds c.mu.
func (o Owned[T]) checkLocked(op string) bool {
	c := o.c
	if c.freed {
		c.violate(VUseAfterFree, op, "cell already freed")
		return false
	}
	if o.gen != c.owner {
		c.violate(VUseAfterMove, op, "handle superseded by Move")
		return false
	}
	return true
}

// Valid reports whether the handle currently owns a live value,
// without recording a violation.
func (o Owned[T]) Valid() bool {
	if o.c == nil {
		return false
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	return !o.c.freed && o.gen == o.c.owner
}

// Use grants the owner exclusive mutable access to the value for the
// duration of f. It fails (returning false, recording a violation) if
// the handle is stale, the value is freed, or any borrow is
// outstanding.
func (o Owned[T]) Use(f func(*T)) bool {
	if o.c == nil {
		// No cell to attribute this to; report a null-use against an
		// anonymous label via a temporary checkerless path: the
		// caller sees the false.
		return false
	}
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !o.checkLocked("Use") {
		return false
	}
	if c.writer {
		c.violate(VOwnerAccessDuringMut, "Use", "region lent out exclusively")
		return false
	}
	if c.readers > 0 {
		c.violate(VMutateWhileShared, "Use", "region has shared readers")
		return false
	}
	f(&c.val)
	return true
}

// Read grants the owner read access. Permitted while shared borrows
// are outstanding (model 3: "the caller, callee, and others can read")
// but not during an exclusive borrow.
func (o Owned[T]) Read(f func(T)) bool {
	if o.c == nil {
		return false
	}
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !o.checkLocked("Read") {
		return false
	}
	if c.writer {
		c.violate(VOwnerAccessDuringMut, "Read", "region lent out exclusively")
		return false
	}
	f(c.val)
	return true
}

// Move transfers ownership (sharing model 1): the receiver gets a
// fresh valid handle and every old handle goes stale. Moving a stale
// or freed handle yields an invalid handle and records the violation.
func (o Owned[T]) Move() Owned[T] {
	if o.c == nil {
		return Owned[T]{}
	}
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !o.checkLocked("Move") {
		return Owned[T]{}
	}
	if c.writer || c.readers > 0 {
		c.violate(VBorrowConflict, "Move", "cannot move while borrowed")
		return Owned[T]{}
	}
	c.nextGen++
	c.owner = c.nextGen
	if tpMove.Enabled() {
		tpMove.Emit(0, ktrace.Hash(c.label), c.nextGen)
	}
	return Owned[T]{c: c, gen: c.nextGen}
}

// Free releases the value (the Move receiver's obligation in model
// 1). It fails on stale handles, double frees, and outstanding
// borrows.
func (o Owned[T]) Free() bool {
	if o.c == nil {
		return false
	}
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.freed {
		c.violate(VDoubleFree, "Free", "cell already freed")
		return false
	}
	if o.gen != c.owner {
		c.violate(VUseAfterMove, "Free", "handle superseded by Move")
		return false
	}
	if c.writer || c.readers > 0 {
		c.violate(VFreeWhileBorrowed, "Free", "borrows outstanding")
		return false
	}
	c.freed = true
	var zero T
	c.val = zero // drop the payload eagerly, as kfree would
	if c.checker != nil {
		c.checker.untrackCell(c)
	}
	return true
}

// BorrowMut starts an exclusive borrow (sharing model 2). While the
// Mut is live the owner cannot access the region; the borrower may
// mutate but not free. Fails if any borrow is outstanding.
func (o Owned[T]) BorrowMut() (Mut[T], bool) {
	if o.c == nil {
		return Mut[T]{}, false
	}
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !o.checkLocked("BorrowMut") {
		return Mut[T]{}, false
	}
	if c.writer || c.readers > 0 {
		c.violate(VBorrowConflict, "BorrowMut", "borrow already outstanding")
		return Mut[T]{}, false
	}
	c.writer = true
	if tpBorrow.Enabled() {
		tpBorrow.Emit(0, ktrace.Hash(c.label), 1)
	}
	return Mut[T]{c: c, released: new(bool)}, true
}

// Borrow starts a shared read-only borrow (sharing model 3). Multiple
// shared borrows coexist; mutation is blocked until all release.
//
//kerncheck:ignore deadexport paper artifact: §4.3 sharing model 3, measured by the root ownership benchmarks and driven by pkg/safelinux's concurrency test
func (o Owned[T]) Borrow() (Ref[T], bool) {
	if o.c == nil {
		return Ref[T]{}, false
	}
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !o.checkLocked("Borrow") {
		return Ref[T]{}, false
	}
	if c.writer {
		c.violate(VBorrowConflict, "Borrow", "exclusive borrow outstanding")
		return Ref[T]{}, false
	}
	c.readers++
	if tpBorrow.Enabled() {
		tpBorrow.Emit(0, ktrace.Hash(c.label), 0)
	}
	return Ref[T]{c: c, released: new(bool)}, true
}

// Mut is the exclusive-borrow capability (sharing model 2).
type Mut[T any] struct {
	c        *cell[T]
	released *bool // shared across handle copies
}

// Update mutates the value. Fails after release or free.
//
//kerncheck:ignore deadexport paper artifact: §4.3 sharing model 2's mutation, measured by the root ownership benchmarks
func (m Mut[T]) Update(f func(*T)) bool {
	if m.c == nil {
		return false
	}
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if *m.released {
		c.violate(VStaleBorrow, "Mut.Update", "borrow already released")
		return false
	}
	if c.freed {
		c.violate(VUseAfterFree, "Mut.Update", "cell freed under borrow")
		return false
	}
	f(&c.val)
	return true
}

// Release ends the borrow, returning access to the owner. Double
// release is a stale-borrow violation.
func (m Mut[T]) Release() bool {
	if m.c == nil {
		return false
	}
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if *m.released {
		c.violate(VStaleBorrow, "Mut.Release", "double release")
		return false
	}
	*m.released = true
	c.writer = false
	return true
}

// Ref is the shared read-only capability (sharing model 3).
type Ref[T any] struct {
	c        *cell[T]
	released *bool
}

// With runs f over the value without copying. f must not retain or
// mutate through the pointer; the checker cannot see through it, so
// this is the one documented trust point (mirroring unsafe blocks).
//
//kerncheck:ignore deadexport paper artifact: §4.3 sharing model 3, measured by the root ownership benchmarks and driven by pkg/safelinux's concurrency test
func (r Ref[T]) With(f func(*T)) bool {
	if r.c == nil {
		return false
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if *r.released || c.freed {
		c.violate(VStaleBorrow, "Ref.With", "borrow not live")
		return false
	}
	f(&c.val)
	return true
}

// Release ends the shared borrow.
//
//kerncheck:ignore deadexport paper artifact: §4.3 sharing model 3, measured by the root ownership benchmarks and driven by pkg/safelinux's concurrency test
func (r Ref[T]) Release() bool {
	if r.c == nil {
		return false
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if *r.released {
		c.violate(VStaleBorrow, "Ref.Release", "double release")
		return false
	}
	*r.released = true
	c.readers--
	return true
}
