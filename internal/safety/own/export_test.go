package own

import "safelinux/internal/linuxlike/kbase"

// OopsKind maps a violation to the kernel bug class it corresponds to.
func (v ViolationKind) OopsKind() kbase.OopsKind {
	switch v {
	case VNullUse:
		return kbase.OopsNullDeref
	case VUseAfterMove, VUseAfterFree, VStaleBorrow:
		return kbase.OopsUseAfterFree
	case VDoubleFree, VCalleeFree, VFreeWhileBorrowed:
		return kbase.OopsDoubleFree
	case VBorrowConflict, VOwnerAccessDuringMut, VMutateWhileShared:
		return kbase.OopsDataRace
	case VLeak:
		return kbase.OopsLeak
	}
	return kbase.OopsGeneric
}

// Label returns the cell label ("" for the zero handle).
func (o Owned[T]) Label() string {
	if o.c == nil {
		return ""
	}
	return o.c.label
}

// Get reads the value through the exclusive borrow.
func (m Mut[T]) Get() (T, bool) {
	var zero T
	if m.c == nil {
		return zero, false
	}
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if *m.released || c.freed {
		c.violate(VStaleBorrow, "Mut.Get", "borrow not live")
		return zero, false
	}
	return c.val, true
}

// Free is always a violation: model 2 says "the callee can mutate the
// memory but not free it".
func (m Mut[T]) Free() bool {
	if m.c == nil {
		return false
	}
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	m.c.violate(VCalleeFree, "Mut.Free", "exclusive borrower attempted free")
	return false
}

// Get returns a copy of the value.
func (r Ref[T]) Get() (T, bool) {
	var zero T
	if r.c == nil {
		return zero, false
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if *r.released || c.freed {
		c.violate(VStaleBorrow, "Ref.Get", "borrow not live")
		return zero, false
	}
	return c.val, true
}

// Free is always a violation: shared borrowers cannot free.
func (r Ref[T]) Free() bool {
	if r.c == nil {
		return false
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	r.c.violate(VCalleeFree, "Ref.Free", "shared borrower attempted free")
	return false
}

// Reset clears recorded violations (not the live-cell registry).
func (c *Checker) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = nil
}

// CountKind returns the number of violations of one kind.
func (c *Checker) CountKind(k ViolationKind) int {
	n := 0
	for _, v := range c.Violations() {
		if v.Kind == k {
			n++
		}
	}
	return n
}
