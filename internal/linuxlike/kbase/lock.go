package kbase

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Lock primitives with optional validation.
//
// The simulated kernel uses SpinLock and KMutex everywhere a real
// kernel would. Both wrap sync.Mutex but additionally register with a
// LockValidator (a small lockdep) that tracks the lock-ordering graph
// and detects potential deadlocks by cycle detection, plus
// double-unlock and unlock-of-unlocked misuse. Validation can be
// switched off globally for benchmarks via SetLockValidation.

// lockValidationOff is the global switch, stored inverted so that the
// zero value means "on". Every lock operation reads it, so it is an
// atomic rather than a variable behind one process-wide mutex.
var lockValidationOff atomic.Bool

// SetLockValidation toggles global lockdep-style validation and
// returns the previous setting. It is not safe to toggle while locks
// are held.
func SetLockValidation(on bool) bool {
	return !lockValidationOff.Swap(!on)
}

func lockValidationOn() bool { return !lockValidationOff.Load() }

// LockClass identifies a family of locks for ordering purposes, e.g.
// all inode i_lock instances share one class, as in Linux lockdep.
type LockClass struct {
	name  string
	id    int
	subs  []*LockClass // lazily created nested subclasses
	stats classStats   // lockstat counters (see lockstat.go)
}

var (
	classMu   sync.Mutex
	classes   []*LockClass
	classSeen = make(map[string]*LockClass)
)

// NewLockClass registers (or returns the existing) lock class with the
// given name.
func NewLockClass(name string) *LockClass {
	classMu.Lock()
	defer classMu.Unlock()
	return newLockClassLocked(name)
}

func newLockClassLocked(name string) *LockClass {
	if c, ok := classSeen[name]; ok {
		return c
	}
	c := &LockClass{name: name, id: len(classes)}
	classes = append(classes, c)
	classSeen[name] = c
	return c
}

// Nested returns the subclass of this class for nesting level sub, as
// Linux's mutex_lock_nested uses to annotate places where two locks of
// the same class are legitimately taken in a fixed order (e.g. parent
// directory before child directory). Subclass 0 is the class itself;
// subclass n > 0 is registered as "name#n" and participates in the
// ordering graph as its own node, so class->class#1 is a valid edge
// while class->class would be flagged.
func (c *LockClass) Nested(sub int) *LockClass {
	if sub <= 0 {
		return c
	}
	classMu.Lock()
	defer classMu.Unlock()
	for len(c.subs) < sub {
		c.subs = append(c.subs, nil)
	}
	if c.subs[sub-1] == nil {
		c.subs[sub-1] = newLockClassLocked(fmt.Sprintf("%s#%d", c.name, sub))
	}
	return c.subs[sub-1]
}

// LockValidator records the observed ordering between lock classes and
// reports violations. One global instance serves the whole kernel,
// mirroring lockdep. Each task keeps the stack of classes it holds on
// itself, behind its own uncontended lock (lockdep's held_locks lives
// in task_struct too); the task-less task 0 shares one stack. The
// ordering graph is read-mostly: an acquisition whose edges are all
// known checks them under the read lock and takes the write lock only
// to learn a new edge or record a report.
type LockValidator struct {
	mu       sync.RWMutex
	after    map[int]map[int]bool // class a held while acquiring b => after[a][b]; guarded by mu
	reports  []string             // guarded by mu
	shared   heldLocks            // task 0's stack
	maxDepth atomic.Int64
}

// heldLocks is one task's stack of held lock classes.
type heldLocks struct {
	mu      sync.Mutex
	classes []*LockClass
}

var globalValidator = &LockValidator{after: make(map[int]map[int]bool)}

// Validator returns the kernel-wide lock validator.
func Validator() *LockValidator { return globalValidator }

// Reports returns the accumulated violation reports.
func (v *LockValidator) Reports() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.reports))
	copy(out, v.reports)
	return out
}

// heldOf returns the held-lock stack of task (task 0's for nil).
func (v *LockValidator) heldOf(task *Task) *heldLocks {
	if task == nil {
		return &v.shared
	}
	return &task.held
}

func (v *LockValidator) acquire(task *Task, c *LockClass) {
	hl := v.heldOf(task)
	hl.mu.Lock()
	defer hl.mu.Unlock()
	if v.knownEdges(hl.classes, c) {
		hl.classes = append(hl.classes, c)
	} else {
		v.learn(hl, c)
	}
	for d := int64(len(hl.classes)); ; {
		old := v.maxDepth.Load()
		if d <= old || v.maxDepth.CompareAndSwap(old, d) {
			break
		}
	}
}

// knownEdges reports whether every held->c edge is already in the
// graph, so acquiring c can neither add an edge nor close a cycle.
func (v *LockValidator) knownEdges(held []*LockClass, c *LockClass) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, h := range held {
		if !v.after[h.id][c.id] {
			return false
		}
	}
	return true
}

// learn adds the held->c edges under the write lock, reporting any
// that inverts an existing order, and pushes c. Caller holds hl.mu.
func (v *LockValidator) learn(hl *heldLocks, c *LockClass) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, h := range hl.classes {
		edge := v.after[h.id]
		if edge == nil {
			edge = make(map[int]bool)
			v.after[h.id] = edge
		}
		if !edge[c.id] && v.pathExists(c.id, h.id) {
			v.reports = append(v.reports, fmt.Sprintf(
				"possible deadlock: acquiring %q while holding %q inverts existing order %q->%q",
				c.name, h.name, c.name, h.name))
		}
		edge[c.id] = true
	}
	hl.classes = append(hl.classes, c)
}

// pathExists reports whether the ordering graph already has a path
// from to dst, meaning "from is taken before dst" somewhere. Caller
// holds v.mu.
func (v *LockValidator) pathExists(from, to int) bool {
	if from == to {
		return true
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range v.after[n] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

func (v *LockValidator) release(task *Task, c *LockClass) {
	hl := v.heldOf(task)
	hl.mu.Lock()
	held := hl.classes
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == c {
			// Remove in place: the next acquire appends into the same
			// array instead of allocating a new one.
			copy(held[i:], held[i+1:])
			held[len(held)-1] = nil
			hl.classes = held[:len(held)-1]
			hl.mu.Unlock()
			return
		}
	}
	hl.mu.Unlock()
	v.mu.Lock()
	v.reports = append(v.reports, fmt.Sprintf("unlock of %q not held by task %d", c.name, task.ID()))
	v.mu.Unlock()
}

// taskID identifies the current "kernel task". Goroutines have no
// stable exported ID, so tasks register themselves; unregistered
// goroutines share task 0, which keeps validation useful for
// single-threaded tests while staying cheap.
var (
	taskMu   sync.Mutex
	taskIDs        = make(map[*Task]int64)
	nextTask int64 = 1
)

// Task represents a kernel thread of execution for lock tracking.
type Task struct {
	id int64
	// super marks a trusted-core (supervisor) task: crash-containment
	// boundaries let it through directly, which is how the compartment
	// supervisor restarts a subsystem and how a hot swap copies state
	// while ordinary callers are held at the drained boundary.
	super bool
	// trace/span carry the task's current tracing context (ktrace span
	// plane). They live here — as bare words, not richer types —
	// because kbase sits below ktrace in the import graph, and the
	// task is the only thing that travels with a request across every
	// subsystem boundary.
	trace atomic.Uint64
	span  atomic.Uint64
	// roots counts the span plane's root-sampling rolls for this task,
	// so parallel tasks do not contend on one shared counter.
	roots atomic.Uint64
	// held is the lock validator's stack of classes this task holds.
	held heldLocks
}

// NewTask registers a new kernel task.
func NewTask() *Task {
	taskMu.Lock()
	defer taskMu.Unlock()
	t := &Task{id: nextTask}
	nextTask++
	taskIDs[t] = t.id
	return t
}

// NewSupervisorTask registers a trusted-core task that bypasses
// compartment boundaries (see Task.Supervisor).
func NewSupervisorTask() *Task {
	t := NewTask()
	t.super = true
	return t
}

// ID returns the task id.
func (t *Task) ID() int64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Supervisor reports whether this is a trusted-core task that
// compartment boundaries must not gate.
func (t *Task) Supervisor() bool { return t != nil && t.super }

// SpanCtx returns the task's current (trace, span) tracing context;
// (0, 0) — no active trace — for a nil task.
func (t *Task) SpanCtx() (trace, span uint64) {
	if t == nil {
		return 0, 0
	}
	return t.trace.Load(), t.span.Load()
}

// NextRoot counts one root-sampling roll of the span plane on the
// task and returns the new count.
func (t *Task) NextRoot() uint64 { return t.roots.Add(1) }

// SetSpanCtx installs a tracing context on the task (no-op on nil).
// Set by the span plane on boundary entry and restored on exit.
func (t *Task) SetSpanCtx(trace, span uint64) {
	if t == nil {
		return
	}
	t.trace.Store(trace)
	t.span.Store(span)
}

// SpinLock is the kernel spinlock. In simulation it is a mutex; the
// distinction matters only for documentation and lock classes.
type SpinLock struct {
	mu        sync.Mutex
	class     *LockClass
	task      *Task
	holdStart time.Time // lockstat hold sample; guarded by mu
}

// NewSpinLock creates a spinlock in the given class.
func NewSpinLock(class *LockClass) *SpinLock { return &SpinLock{class: class} }

// Lock acquires the spinlock on behalf of task (nil allowed).
func (l *SpinLock) Lock(task *Task) {
	if lockValidationOn() && l.class != nil {
		globalValidator.acquire(task, l.class)
	}
	if l.class != nil && lockStatEnabled.Load() {
		s := &l.class.stats
		s.acquisitions.Add(1)
		if !l.mu.TryLock() {
			t0 := time.Now()
			l.mu.Lock()
			s.noteWait(time.Since(t0))
		}
		l.holdStart = time.Now()
	} else {
		l.mu.Lock()
		l.holdStart = time.Time{}
	}
	l.task = task
}

// Unlock releases the spinlock.
func (l *SpinLock) Unlock(task *Task) {
	if l.class != nil && !l.holdStart.IsZero() {
		l.class.stats.noteHold(time.Since(l.holdStart))
		l.holdStart = time.Time{}
	}
	l.task = nil
	l.mu.Unlock()
	if lockValidationOn() && l.class != nil {
		globalValidator.release(task, l.class)
	}
}

// KMutex is the kernel sleeping mutex.
type KMutex struct {
	mu        sync.Mutex
	class     *LockClass
	held      *LockClass // class actually acquired (may be a Nested subclass)
	statClass *LockClass // class charged by lockstat; guarded by mu
	holdStart time.Time  // lockstat hold sample; guarded by mu
}

// NewKMutex creates a mutex in the given class.
func NewKMutex(class *LockClass) *KMutex { return &KMutex{class: class} }

// Lock acquires the mutex on behalf of task.
func (m *KMutex) Lock(task *Task) { m.LockNested(task, 0) }

// LockNested acquires the mutex under subclass sub of its lock class,
// for call sites that nest two locks of one class in a guaranteed
// order (mutex_lock_nested in Linux). The matching Unlock releases
// whatever subclass was acquired.
func (m *KMutex) LockNested(task *Task, sub int) {
	var acq *LockClass
	if lockValidationOn() && m.class != nil {
		acq = m.class.Nested(sub)
		globalValidator.acquire(task, acq)
	}
	if m.class != nil && lockStatEnabled.Load() {
		sc := m.class
		if sub > 0 {
			sc = m.class.Nested(sub)
		}
		s := &sc.stats
		s.acquisitions.Add(1)
		if !m.mu.TryLock() {
			t0 := time.Now()
			m.mu.Lock()
			s.noteWait(time.Since(t0))
		}
		m.statClass = sc
		m.holdStart = time.Now()
	} else {
		m.mu.Lock()
		m.statClass = nil
		m.holdStart = time.Time{}
	}
	m.held = acq
}

// Unlock releases the mutex.
func (m *KMutex) Unlock(task *Task) {
	if m.statClass != nil && !m.holdStart.IsZero() {
		m.statClass.stats.noteHold(time.Since(m.holdStart))
		m.statClass = nil
		m.holdStart = time.Time{}
	}
	acq := m.held
	m.held = nil
	m.mu.Unlock()
	if acq != nil {
		globalValidator.release(task, acq)
	}
}

// RWSem is the kernel reader/writer semaphore.
type RWSem struct {
	mu        sync.RWMutex
	class     *LockClass
	holdStart time.Time // lockstat write-hold sample; guarded by mu (write side)
}

// NewRWSem creates a rwsem in the given class.
func NewRWSem(class *LockClass) *RWSem { return &RWSem{class: class} }

// DownRead acquires shared. Lockstat counts shared acquisitions and
// wait time but not hold time: concurrent readers would race on any
// per-sem hold sample, and read holds do not exclude anyone anyway.
func (s *RWSem) DownRead(task *Task) {
	if lockValidationOn() && s.class != nil {
		globalValidator.acquire(task, s.class)
	}
	if s.class != nil && lockStatEnabled.Load() {
		st := &s.class.stats
		st.readAcquires.Add(1)
		if !s.mu.TryRLock() {
			t0 := time.Now()
			s.mu.RLock()
			st.noteWait(time.Since(t0))
		}
	} else {
		s.mu.RLock()
	}
}

// UpRead releases shared.
func (s *RWSem) UpRead(task *Task) {
	s.mu.RUnlock()
	if lockValidationOn() && s.class != nil {
		globalValidator.release(task, s.class)
	}
}

// DownWrite acquires exclusive.
func (s *RWSem) DownWrite(task *Task) {
	if lockValidationOn() && s.class != nil {
		globalValidator.acquire(task, s.class)
	}
	if s.class != nil && lockStatEnabled.Load() {
		st := &s.class.stats
		st.acquisitions.Add(1)
		if !s.mu.TryLock() {
			t0 := time.Now()
			s.mu.Lock()
			st.noteWait(time.Since(t0))
		}
		s.holdStart = time.Now()
	} else {
		s.mu.Lock()
		s.holdStart = time.Time{}
	}
}

// UpWrite releases exclusive.
func (s *RWSem) UpWrite(task *Task) {
	if s.class != nil && !s.holdStart.IsZero() {
		s.class.stats.noteHold(time.Since(s.holdStart))
		s.holdStart = time.Time{}
	}
	s.mu.Unlock()
	if lockValidationOn() && s.class != nil {
		globalValidator.release(task, s.class)
	}
}
