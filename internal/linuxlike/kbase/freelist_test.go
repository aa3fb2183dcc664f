package kbase

import "testing"

// TestFreeListBounded: Get returns the most recent Put first, a full
// list drops what it is offered, and an empty one reports so.
func TestFreeListBounded(t *testing.T) {
	l := NewFreeList[int](2)
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	for _, want := range []int{2, 1} {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok {
		t.Fatalf("Get on an empty list = %d, true", got)
	}
}
