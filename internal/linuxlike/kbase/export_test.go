package kbase

import "sort"

// Fork derives an independent stream.
func (r *Rng) Fork() *Rng { return NewRng(r.Uint64()) }

// WarnOn records a non-fatal warning event if cond is true, mirroring
// WARN_ON. Returns cond for inline use.
func WarnOn(cond bool, module, format string, args ...any) bool {
	if cond {
		Oops(OopsGeneric, module, "WARN_ON: "+format, args...)
	}
	return cond
}

// MaxDepth returns the deepest observed lock nesting.
func (v *LockValidator) MaxDepth() int { return int(v.maxDepth.Load()) }

// OrderingEdges returns the observed class-ordering edges as
// "a->b" strings, sorted, for audit output.
func (v *LockValidator) OrderingEdges() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	classMu.Lock()
	defer classMu.Unlock()
	var out []string
	for a, m := range v.after {
		for b := range m {
			out = append(out, classes[a].name+"->"+classes[b].name)
		}
	}
	sort.Strings(out)
	return out
}

// Stats returns total allocations and frees.
func (a *Arena) Stats() (allocs, frees uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs, a.frees
}

// CheckLeaks raises a memory-leak oops if any object is still live and
// returns the number of leaked objects (a kmemleak sweep at module
// unload).
func (a *Arena) CheckLeaks() int {
	n := a.Live()
	if n > 0 {
		Oops(OopsLeak, a.module, "%d objects leaked at unload", n)
	}
	return n
}

// Now returns the wheel clock.
func (w *TimerWheel[T]) Now() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

// Live returns the number of currently live objects.
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.state {
		if s == ObjLive {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of wheel counters.
func (w *TimerWheel[T]) Stats() WheelStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Name returns the class name.
func (c *LockClass) Name() string { return c.name }

// Reset clears ordering state, task 0's held stack and reports (for
// tests). Other tasks' stacks live on the tasks.
func (v *LockValidator) Reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.after = make(map[int]map[int]bool)
	v.shared.mu.Lock()
	v.shared.classes = nil
	v.shared.mu.Unlock()
	v.reports = nil
	v.maxDepth.Store(0)
}
