package kbase

import (
	"sync"
)

// Object lifetime tracking (a miniature KASAN).
//
// Legacy modules manage object lifetimes manually through KAlloc /
// KFree, as kernel C does with kmalloc/kfree. The Arena tracks each
// object's state so that use-after-free, double-free, and leaks are
// detectable — the way KASAN and kmemleak detect them in real kernels.
// Safe modules do not use the Arena at all; their allocations are
// governed by the ownership framework, which rules these bug classes
// out by construction rather than detecting them after the fact.

// ObjState is the lifecycle state of a tracked object.
type ObjState uint8

// Object lifecycle states.
const (
	ObjLive ObjState = iota
	ObjFreed
)

// Arena tracks manually-managed kernel objects for one subsystem.
type Arena struct {
	module string
	mu     sync.Mutex
	state  map[any]ObjState
	allocs uint64
	frees  uint64
}

// NewArena creates an arena whose reports are attributed to module.
func NewArena(module string) *Arena {
	return &Arena{module: module, state: make(map[any]ObjState)}
}

// Alloc registers obj as live. Passing an already-live object is a
// substrate bug and panics. Go has no generic methods, so the typed
// entry points are package functions over the arena; the dynamically
// typed tracking map stays an internal detail.
func Alloc[T comparable](a *Arena, obj T) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.state[obj]; ok && s == ObjLive {
		panic("kbase: Arena Alloc of live object")
	}
	a.state[obj] = ObjLive
	a.allocs++
}

// Free marks obj freed. Freeing an already-freed object raises a
// double-free oops; freeing an unknown object raises a generic oops.
func Free[T comparable](a *Arena, obj T) {
	a.mu.Lock()
	s, ok := a.state[obj]
	if ok && s == ObjLive {
		a.state[obj] = ObjFreed
		a.frees++
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	if ok && s == ObjFreed {
		Oops(OopsDoubleFree, a.module, "double free of %T", obj)
		return
	}
	Oops(OopsGeneric, a.module, "free of unallocated %T", obj)
}

// Access validates that obj is live before a use. A freed object
// raises a use-after-free oops and returns false; callers in legacy
// style typically ignore the return value, which is the point.
func Access[T comparable](a *Arena, obj T) bool {
	a.mu.Lock()
	s, ok := a.state[obj]
	a.mu.Unlock()
	if !ok {
		return true // untracked objects are out of scope
	}
	if s == ObjFreed {
		Oops(OopsUseAfterFree, a.module, "use after free of %T", obj)
		return false
	}
	return true
}
