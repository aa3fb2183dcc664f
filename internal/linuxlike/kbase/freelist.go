package kbase

import "sync"

// FreeList is a bounded stack of released objects for reuse, safe for
// concurrent use: a slab cache's free list without the per-CPU part.
// Unlike a sync.Pool it keeps what it holds across garbage
// collections, so a steady producer and consumer allocate nothing.
type FreeList[T any] struct {
	mu    sync.Mutex // a leaf lock
	items []T        // cap(items) is the bound
}

// NewFreeList returns an empty list that holds at most n objects.
func NewFreeList[T any](n int) *FreeList[T] {
	return &FreeList[T]{items: make([]T, 0, n)}
}

// Get pops the most recently put object; ok is false when the list is
// empty.
func (l *FreeList[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero // the list keeps no reference to what it gave out
	l.items = l.items[:n-1]
	return x, true
}

// Put offers x for reuse; a full list drops it.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	if len(l.items) < cap(l.items) {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}
