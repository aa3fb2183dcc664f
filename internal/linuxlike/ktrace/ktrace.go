// Package ktrace is the observability plane of the simulated kernel:
// ftrace-style static tracepoints feeding a sharded lock-free ring
// buffer, a unified metrics registry with /proc-style and JSON
// exporters, lockstat surfacing (the accounting itself lives in kbase,
// next to the lock primitives), and ebpflike programs attachable to
// tracepoints as verified filters.
//
// The design constraint that shapes everything here is the emit gate:
// a *disabled* tracepoint must cost one atomic load and a predictable
// branch, so the legacy and safe subsystems can be instrumented
// permanently without a measurable tax on the I/O path (see
// BENCH_trace.json). Only once a tracepoint is enabled does an emit
// pay for event construction, probe evaluation, and the ring store.
//
// Tracepoints are declared at package init by the instrumented
// subsystem:
//
//	var tpRead = ktrace.New("blockdev:read")
//	...
//	tpRead.Emit(0, block, 0)
//
// and controlled centrally: Enable/Disable by name, EnableAll for
// flight recording, Attach to install a verified ebpflike filter.
package ktrace

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// Event is one emitted trace record. The fixed shape — four uint64
// arguments, no payload pointers — is what makes events cheap to
// store, safe to hand to verified programs, and meaningful across
// every subsystem (args are documented per tracepoint in DESIGN.md).
type Event struct {
	Seq  uint64 // global emit order, assigned by the ring
	TPID uint32 // tracepoint id
	Name string // tracepoint name ("subsys:event")
	Task int64  // emitting kernel task (0 = unregistered)
	A0   uint64
	A1   uint64
	A2   uint64
	A3   uint64
}

// EventCtxSize is the size of the byte context an Event presents to an
// attached ebpflike program.
const EventCtxSize = 48

// CtxBytes encodes the event as the fixed little-endian context window
// a verified program reads:
//
//	[0:4)   tracepoint id
//	[4:8)   task id (low 32 bits)
//	[8:16)  sequence number
//	[16:24) A0   [24:32) A1   [32:40) A2   [40:48) A3
func (e *Event) CtxBytes() [EventCtxSize]byte {
	var b [EventCtxSize]byte
	binary.LittleEndian.PutUint32(b[0:], e.TPID)
	binary.LittleEndian.PutUint32(b[4:], uint32(e.Task))
	binary.LittleEndian.PutUint64(b[8:], e.Seq)
	binary.LittleEndian.PutUint64(b[16:], e.A0)
	binary.LittleEndian.PutUint64(b[24:], e.A1)
	binary.LittleEndian.PutUint64(b[32:], e.A2)
	binary.LittleEndian.PutUint64(b[40:], e.A3)
	return b
}

// Tracepoint is one static instrumentation site family. The zero
// value is not usable; declare tracepoints with New.
type Tracepoint struct {
	name string
	id   uint32
	// coverIdx is the tracepoint's bit in the coverage bitmap,
	// precomputed at registration so the emit path never hashes a
	// string (see coverage.go).
	coverIdx uint32

	// on is an enable count: Enable/Attach increment, Disable/Detach
	// decrement. The emit gate is a single load of this word.
	on atomic.Int32

	hits     atomic.Uint64 // events recorded into the ring
	filtered atomic.Uint64 // events dropped by an attached program

	probes atomic.Pointer[[]*Probe] // copy-on-write attached programs
}

var (
	regMu  sync.Mutex
	byName = make(map[string]*Tracepoint)
	byID   []*Tracepoint
)

// New declares (or returns the already-declared) tracepoint with the
// given "subsys:event" name. Called from package init of the
// instrumented subsystem.
func New(name string) *Tracepoint {
	regMu.Lock()
	defer regMu.Unlock()
	if tp, ok := byName[name]; ok {
		return tp
	}
	tp := &Tracepoint{name: name, id: uint32(len(byID)), coverIdx: CoverIndex(name)}
	byName[name] = tp
	byID = append(byID, tp)
	return tp
}

// nameForID resolves a tracepoint id back to its name — the ring
// stores ids, not strings, so readers resolve at snapshot time.
func nameForID(id uint32) string {
	regMu.Lock()
	defer regMu.Unlock()
	if int(id) < len(byID) {
		return byID[id].name
	}
	return "?"
}

// Lookup returns the tracepoint with the given name, or nil.
func Lookup(name string) *Tracepoint {
	regMu.Lock()
	defer regMu.Unlock()
	return byName[name]
}

// List returns every declared tracepoint, sorted by name.
func List() []*Tracepoint {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Tracepoint, len(byID))
	copy(out, byID)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// EnableAll enables every declared tracepoint. Pair with DisableAll.
func EnableAll() {
	for _, tp := range List() {
		tp.Enable()
	}
}

// DisableAll drops one enable reference from every declared
// tracepoint (the inverse of EnableAll; attached probes keep their
// tracepoints live).
func DisableAll() {
	for _, tp := range List() {
		tp.Disable()
	}
}

// Name returns the tracepoint name.
func (tp *Tracepoint) Name() string { return tp.name }

// ID returns the tracepoint's stable numeric id (the value an
// attached program reads at context offset 0).
func (tp *Tracepoint) ID() uint32 { return tp.id }

// Enabled reports whether emits currently record events.
func (tp *Tracepoint) Enabled() bool { return tp.on.Load() > 0 }

// Enable turns the tracepoint on (reference counted).
func (tp *Tracepoint) Enable() { tp.on.Add(1) }

// Disable drops one enable reference, never below zero.
func (tp *Tracepoint) Disable() {
	for {
		cur := tp.on.Load()
		if cur <= 0 {
			return
		}
		if tp.on.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// Hits returns the number of events this tracepoint recorded.
func (tp *Tracepoint) Hits() uint64 { return tp.hits.Load() }

// Filtered returns the number of events dropped by attached programs.
func (tp *Tracepoint) Filtered() uint64 { return tp.filtered.Load() }

// Hash returns the FNV-1a hash of s. Events carry no strings beyond
// the tracepoint name, so identifiers — lock class names, ownership
// cell labels, module names — travel as this hash in an argument
// slot; callers should gate the call on Enabled() to keep the
// disabled path string-free.
func Hash(s string) uint64 { return fnv1a(s) }

// Emit records an event with two arguments. THE fast path: when the
// tracepoint is disabled this is one atomic load and a return, which
// is the whole cost of leaving instrumentation compiled in.
func (tp *Tracepoint) Emit(task int64, a0, a1 uint64) {
	if tp.on.Load() == 0 {
		return
	}
	tp.emit(task, a0, a1, 0, 0)
}

// Emit4 records an event with four arguments.
func (tp *Tracepoint) Emit4(task int64, a0, a1, a2, a3 uint64) {
	if tp.on.Load() == 0 {
		return
	}
	tp.emit(task, a0, a1, a2, a3)
}

// emit is the enabled slow path: run attached programs (any verdict 0
// filters the event), then publish into the ring. The common case —
// no probes attached — builds no Event and allocates nothing: the
// payload goes straight into the ring as word stores. Only a probe
// needs the Event shape (for its fixed byte context), and that one
// stays on the stack.
func (tp *Tracepoint) emit(task int64, a0, a1, a2, a3 uint64) {
	if ps := tp.probes.Load(); ps != nil {
		ev := Event{TPID: tp.id, Name: tp.name, Task: task, A0: a0, A1: a1, A2: a2, A3: a3}
		for _, p := range *ps {
			if !p.keep(&ev) {
				tp.filtered.Add(1)
				return
			}
		}
	}
	tp.hits.Add(1)
	if coverOn.Load() {
		coverMark(tp.coverIdx)
	}
	ring().write(tp.id, task, a0, a1, a2, a3)
}
