package kbase

import (
	"fmt"
	"sync"
)

// Oops capture.
//
// The fault-injection campaigns need to observe kernel failures
// without tearing down the test process. In-kernel code reports fatal
// conditions through Oops (recoverable, per-task) and BUG
// (unrecoverable invariant violation). The harness installs an
// OopsRecorder; with no recorder installed both panic, which is the
// honest default for a real kernel.

// OopsKind classifies a captured failure.
type OopsKind string

// Failure classes recognized by the recorder. These correspond to the
// bug classes in the paper's §2 CVE categorization.
const (
	OopsNullDeref     OopsKind = "null-deref"
	OopsUseAfterFree  OopsKind = "use-after-free"
	OopsDoubleFree    OopsKind = "double-free"
	OopsOutOfBounds   OopsKind = "out-of-bounds"
	OopsTypeConfusion OopsKind = "type-confusion"
	OopsDataRace      OopsKind = "data-race"
	OopsDeadlock      OopsKind = "deadlock"
	OopsLeak          OopsKind = "memory-leak"
	OopsSemantic      OopsKind = "semantic"
	OopsCorruption    OopsKind = "corruption"
	OopsGeneric       OopsKind = "generic"
)

// OopsEvent is one captured kernel failure.
type OopsEvent struct {
	Kind   OopsKind
	Module string
	Msg    string
	// Trace is the flight-recorder dump captured at the oops site: the
	// most recent trace events, newest last, each pre-rendered as one
	// line. Populated only while a trace provider is installed (see
	// SetOopsTraceFn; ktrace.EnableFlightRecorder installs one).
	Trace []string
}

func (e OopsEvent) String() string {
	return fmt.Sprintf("oops[%s] in %s: %s", e.Kind, e.Module, e.Msg)
}

// OopsRecorder receives kernel failures instead of crashing the
// process.
type OopsRecorder struct {
	mu     sync.Mutex
	events []OopsEvent
}

var (
	recorderMu sync.RWMutex
	recorder   *OopsRecorder

	// oopsTraceFn, when installed, is invoked at every Oops/BUG site to
	// snapshot the flight recorder into the event. oopsObserver, when
	// installed, sees every failure as it happens (before the recorder
	// captures it) — ktrace uses it to emit the kernel:oops tracepoint,
	// so the crash itself lands in the trace stream.
	oopsHookMu   sync.RWMutex
	oopsTraceFn  func() []string
	oopsObserver func(kind OopsKind, module string)
)

// SetOopsTraceFn installs f as the flight-recorder snapshot provider
// consulted at every Oops/BUG, returning the previous provider. Pass
// nil to uninstall.
func SetOopsTraceFn(f func() []string) func() []string {
	oopsHookMu.Lock()
	defer oopsHookMu.Unlock()
	prev := oopsTraceFn
	oopsTraceFn = f
	return prev
}

// SetOopsObserver installs f to be called at every Oops/BUG site,
// returning the previous observer. Pass nil to uninstall.
func SetOopsObserver(f func(kind OopsKind, module string)) func(kind OopsKind, module string) {
	oopsHookMu.Lock()
	defer oopsHookMu.Unlock()
	prev := oopsObserver
	oopsObserver = f
	return prev
}

// finalizeOops runs the observer and attaches the flight-recorder
// dump. The observer runs first so the oops event itself is the last
// entry of the captured trace.
func finalizeOops(e *OopsEvent) {
	oopsHookMu.RLock()
	obs, tf := oopsObserver, oopsTraceFn
	oopsHookMu.RUnlock()
	if obs != nil {
		obs(e.Kind, e.Module)
	}
	if tf != nil {
		e.Trace = tf()
	}
}

// InstallRecorder installs rec as the kernel oops sink and returns the
// previous recorder (possibly nil).
func InstallRecorder(rec *OopsRecorder) *OopsRecorder {
	recorderMu.Lock()
	defer recorderMu.Unlock()
	prev := recorder
	recorder = rec
	return prev
}

// RecorderInstalled reports whether an oops recorder is currently
// installed — crash-containment boundaries consult this before
// reporting a recovered panic through Oops (which would itself panic
// with no recorder, defeating the containment).
func RecorderInstalled() bool {
	recorderMu.RLock()
	defer recorderMu.RUnlock()
	return recorder != nil
}

// PanicReport is the typed panic value BUG throws after running the
// oops machinery. A crash-containment boundary that recovers one knows
// the kernel:oops tracepoint was already emitted, the flight recorder
// already snapshotted, and the recorder (if any) already updated — so
// it must convert the panic to a typed error WITHOUT reporting a
// second oops. Recovering any other panic value means the failure has
// not been reported yet.
type PanicReport struct{ Event OopsEvent }

// String renders the same "BUG: ..." line the untyped panic used to
// carry, so logs and recovered-panic messages are unchanged.
func (p *PanicReport) String() string { return "BUG: " + p.Event.String() }

// Error makes a recovered PanicReport usable as an error.
func (p *PanicReport) Error() string { return p.String() }

// Events returns a copy of all recorded events.
func (r *OopsRecorder) Events() []OopsEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]OopsEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns the number of recorded events of the given kind, or
// all events if kind is empty.
func (r *OopsRecorder) Count(kind OopsKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == "" {
		return len(r.events)
	}
	n := 0
	for _, e := range r.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Reset clears recorded events.
func (r *OopsRecorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}

func (r *OopsRecorder) record(e OopsEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Oops reports a recoverable kernel failure. With a recorder installed
// the event is captured and execution continues (the caller is
// responsible for unwinding); otherwise it panics.
func Oops(kind OopsKind, module, format string, args ...any) {
	e := OopsEvent{Kind: kind, Module: module, Msg: fmt.Sprintf(format, args...)}
	finalizeOops(&e)
	recorderMu.RLock()
	rec := recorder
	recorderMu.RUnlock()
	if rec != nil {
		rec.record(e)
		return
	}
	panic(e.String())
}

// BUG reports an unrecoverable invariant violation. It always panics;
// the recorder, if any, captures the event first so campaigns can
// still attribute the failure. The panic value is a *PanicReport so a
// compartment boundary recovering it knows the oops path already ran.
func BUG(module, format string, args ...any) {
	e := OopsEvent{Kind: OopsGeneric, Module: module, Msg: fmt.Sprintf(format, args...)}
	finalizeOops(&e)
	recorderMu.RLock()
	rec := recorder
	recorderMu.RUnlock()
	if rec != nil {
		rec.record(e)
	}
	panic(&PanicReport{Event: e})
}
