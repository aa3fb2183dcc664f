// Package gate is the mechanism of a compartment boundary: the one
// concrete type every compartmentalized subsystem (vfs, bufcache, net,
// kio, the ebpflike probe guard) routes its outermost entry points
// through. It lives in the trusted core beside own and imports only
// kbase and ktrace, so legacy packages hold a *Gate directly and never
// link against the safety layer's policy (internal/safety/compartment,
// which embeds a Gate and adds poison enumeration, the fault record,
// supervisor hooks and the drain/restart API).
//
// A crossing (Do, Run, Hold, GuardProbe) takes no mutex and allocates
// nothing on the healthy path:
//
//   - Admission is lock-free. The lifecycle state is an atomic word
//     and the in-flight count an atomic counter. An entrant increments
//     the count, then loads the state; Healthy admits it. Otherwise it
//     backs the increment out and takes the mutex slow path, which
//     queues it while a drain or restart with no open holds is in
//     effect and fails it with ESHUTDOWN while quarantined. Close
//     stores the state, then polls the count. Go's atomics are
//     sequentially consistent, so either the entrant sees the drain or
//     the drainer sees the entrant.
//   - Exit is one atomic decrement.
//   - The crossed function is a statically dispatched parameter that
//     does not escape, so a caller's closure stays on its stack.
//
// Every state store happens under the mutex, so the slow path, which
// holds it, sees a stable state and cannot lose a wakeup.
//
// A panic inside a crossing is recovered, quarantines the gate and
// comes back as EFAULT; the gate then hands the panic value to the
// fault hook its owner installed at New.
package gate

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// tpEnter fires on every admitted crossing of a non-quiet gate:
// a0=name hash, a1=epoch.
var tpEnter = ktrace.New("compartment:enter")

// State is the gate lifecycle state.
type State int32

// The quarantine state machine (see the compartment package doc).
const (
	Healthy     State = iota // accepting calls
	Draining                 // hot-swap drain: new entries queue
	Quarantined              // faulted: new entries fail fast with ESHUTDOWN
	Restarting               // supervisor rebuilding: new entries queue
)

var stateNames = map[State]string{
	Healthy: "healthy", Draining: "draining",
	Quarantined: "quarantined", Restarting: "restarting",
}

// String returns the state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// FaultFunc receives a panic recovered at the gate, after the gate has
// quarantined. epoch is the gate's epoch at the fault.
type FaultFunc func(task *kbase.Task, op string, epoch uint64, r any)

// Gate is one compartment boundary. Create with New; the zero value is
// not usable.
type Gate struct {
	name     string
	nameHash uint64

	// quiet suppresses tracepoints and the op timer. The ebpflike gate
	// must be quiet: it is crossed from inside ktrace probe evaluation,
	// and emitting from there would recurse into the probe machinery.
	quiet bool

	// state is stored only under mu. Draining and Restarting mean a
	// drain owner holds the gate: the caller whose Close took it, until
	// its Open or Quarantine (or its Close times out).
	state    atomic.Int32
	inflight atomic.Int64
	// epoch increments every time a drain ends healthy (restart and
	// swap); it rides on the compartment:enter tracepoint.
	epoch atomic.Uint64

	mu   sync.Mutex
	cond *sync.Cond // queued entrants wait here for Open or Quarantine
	// holds counts open interaction holds (Hold/release). While a hold
	// is open, a drain admits further entries instead of queueing them:
	// they are the held interaction's own nested work (packet delivery
	// driven from inside a StreamRoundTrip), and blocking them would
	// deadlock the drain against the interaction it is waiting out.
	holds int
	// faulted records a fault that hit an owned drain. The gate stays
	// with its owner, refuses new entries like a quarantined gate, and
	// quarantines when the owner ends the drain; a Close for a restart
	// waits for that.
	faulted bool

	// inject, when positive, counts down entries; the entry that
	// decrements it to zero panics inside the boundary. This is the
	// fault-injection hook for the panic-storm campaign.
	inject atomic.Int64

	onFault FaultFunc

	// op is the latency-plane op for crossings (compartment:<name>):
	// every admitted Do is timed into its histogram and joins the
	// caller's span tree as a child span.
	op *ktrace.Op

	entered  atomic.Uint64 // entries admitted
	rejected atomic.Uint64 // entries refused while quarantined
	faults   atomic.Uint64 // panics recovered at the gate
}

// New creates a healthy gate named name. onFault (may be nil) runs on
// every recovered panic, without the gate's lock held.
func New(name string, onFault FaultFunc) *Gate {
	g := &Gate{name: name, nameHash: ktrace.Hash(name), onFault: onFault, op: ktrace.NewOp("compartment:" + name)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Name returns the gate's name.
func (g *Gate) Name() string { return g.name }

// State returns the current lifecycle state.
func (g *Gate) State() State { return State(g.state.Load()) }

// SetQuiet suppresses tracepoint emission and op timing at this gate
// (see the quiet field: required for the ebpflike gate).
func (g *Gate) SetQuiet(q bool) { g.quiet = q }

// Quiet reports whether the gate is quiet; the owner's fault and
// lifecycle tracepoints follow it.
func (g *Gate) Quiet() bool { return g.quiet }

// InjectPanic arms the fault injector: the n-th subsequent entry
// panics inside the gate. n=1 means the very next entry.
//
//kerncheck:ignore deadexport fault-injection hook that pkg/safelinux's containment tests drive
func (g *Gate) InjectPanic(n int64) { g.inject.Store(n) }

// enter admits one call. Supervisor tasks bypass the gate entirely.
// Returns ESHUTDOWN while quarantined; blocks while draining or
// restarting with no open holds.
func (g *Gate) enter(task *kbase.Task) kbase.Errno {
	if task.Supervisor() {
		return kbase.EOK
	}
	g.inflight.Add(1)
	if State(g.state.Load()) != Healthy {
		g.inflight.Add(-1)
		if e := g.enterSlow(); e != kbase.EOK {
			return e
		}
	}
	g.entered.Add(1)
	if !g.quiet && tpEnter.Enabled() {
		tpEnter.Emit(task.ID(), g.nameHash, g.epoch.Load())
	}
	return kbase.EOK
}

// enterSlow is admission off the healthy path, under mu: queue while
// a drain with no open holds is in effect, fail while quarantined,
// admit otherwise.
func (g *Gate) enterSlow() kbase.Errno {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch State(g.state.Load()) {
		case Quarantined:
			g.rejected.Add(1)
			return kbase.ESHUTDOWN
		case Draining, Restarting:
			if g.faulted {
				g.rejected.Add(1)
				return kbase.ESHUTDOWN
			}
			if g.holds == 0 {
				g.cond.Wait()
				continue
			}
		}
		g.inflight.Add(1)
		return kbase.EOK
	}
}

// exit retires one in-flight call.
func (g *Gate) exit(task *kbase.Task) {
	if !task.Supervisor() {
		g.inflight.Add(-1)
	}
}

// setState stores s; the caller holds mu.
func (g *Gate) setState(s State) { g.state.Store(int32(s)) }

// fault quarantines the gate for a panic recovered inside it and hands
// the panic to the fault hook. The quarantine is in effect before the
// hook runs: the hook reports an oops, which emits tracepoints, and an
// attached probe that re-entered the gate must fail fast instead of
// recursing into the dying subsystem. A fault during an owned drain
// leaves the gate with its owner (see faulted): quarantining it there
// would let a second drain, the supervisor's restart, take it too.
func (g *Gate) fault(task *kbase.Task, op string, r any) {
	g.faults.Add(1)
	g.mu.Lock()
	switch g.State() {
	case Draining, Restarting:
		g.faulted = true
	default:
		g.setState(Quarantined)
	}
	g.mu.Unlock()
	if g.onFault != nil {
		g.onFault(task, op, g.epoch.Load(), r)
	}
}

// Do routes one call across the gate on behalf of task. fn's Errno
// passes through untouched. A panic inside fn is contained: Do returns
// EFAULT and the gate quarantines. While quarantined, Do returns
// ESHUTDOWN without running fn and without blocking.
func (g *Gate) Do(task *kbase.Task, op string, fn func() kbase.Errno) (err kbase.Errno) {
	if e := g.enter(task); e != kbase.EOK {
		return e
	}
	var t ktrace.OpTimer
	if !g.quiet {
		t = g.op.Begin(task)
	}
	defer t.End()
	defer g.exit(task)
	defer func() {
		if r := recover(); r != nil {
			g.fault(task, op, r)
			err = kbase.EFAULT
		}
	}()
	g.maybeInject(op)
	return fn()
}

// Run routes a call that has no kernel task context (background
// machinery, network drivers) across the gate.
func (g *Gate) Run(op string, fn func() kbase.Errno) kbase.Errno {
	return g.Do(nil, op, fn)
}

// maybeInject consumes one armed injection count and panics on the
// entry that drains it to zero. Called inside the recover scope of
// every crossing (Do, GuardProbe) so an injected fault is
// indistinguishable from a real one.
func (g *Gate) maybeInject(op string) {
	if n := g.inject.Load(); n > 0 && g.inject.Add(-1) == 0 {
		panic(fmt.Sprintf("compartment %s: injected fault in %s", g.name, op))
	}
}

// Hold opens a multi-call interaction: it takes one entry that stays
// in-flight until the returned release func runs, and while it is
// open a drain admits further entries instead of queueing them — they
// are the interaction's own nested work (e.g. the packet and timer
// dispatch a StreamRoundTrip drives to make progress), and blocking
// them would deadlock the drain against the very interaction it is
// waiting out. A drain therefore lands between interactions, never
// inside one. Hold itself obeys the normal entry rules: it queues
// while a drain with no open holds is pending and fails fast while
// quarantined. The release func is idempotent.
func (g *Gate) Hold(task *kbase.Task, op string) (release func(), err kbase.Errno) {
	if e := g.enter(task); e != kbase.EOK {
		return nil, e
	}
	super := task.Supervisor()
	if !super {
		g.mu.Lock()
		g.holds++
		g.mu.Unlock()
	}
	released := false
	return func() {
		if released {
			return
		}
		released = true
		if !super {
			g.mu.Lock()
			g.holds--
			g.mu.Unlock()
		}
		g.exit(task)
	}, kbase.EOK
}

// GuardProbe wraps an ebpflike probe evaluation: contain a panic, but
// treat quarantine as "fail open" (the event passes unfiltered) rather
// than an error, matching the probe machinery's fail-open semantics.
// keep reports whether the event passes.
func (g *Gate) GuardProbe(run func() bool) (keep bool) {
	keep = true // fail open
	if e := g.enter(nil); e != kbase.EOK {
		return keep
	}
	defer g.exit(nil)
	defer func() {
		if r := recover(); r != nil {
			g.fault(nil, "probe", r)
		}
	}()
	g.maybeInject("probe")
	return run()
}

// Close moves the gate to target (Draining or Restarting), so new
// entries queue, and waits up to timeout for every in-flight call to
// retire. A Healthy gate can move to either target; a Quarantined one
// only to Restarting (nothing is in flight but the faulted call that is
// unwinding). Close returns EBUSY if a drain is already in effect, and
// EBUSY with the gate Healthy again if the wait times out. On EOK the
// caller owns the gate exclusively until Open or Quarantine. A restart
// Close that finds a fault in the current owner's drain waits for that
// owner to end it, then restarts the quarantined gate.
func (g *Gate) Close(target State, timeout time.Duration) kbase.Errno {
	if target != Draining && target != Restarting {
		return kbase.EINVAL
	}
	g.mu.Lock()
	for g.faulted && target == Restarting {
		g.cond.Wait()
	}
	switch g.State() {
	case Healthy:
	case Quarantined:
		if target != Restarting {
			g.mu.Unlock()
			return kbase.EBUSY // cannot swap into a quarantined slot; restart first
		}
	default:
		g.mu.Unlock()
		return kbase.EBUSY // drain already in progress
	}
	g.setState(target)
	g.mu.Unlock()
	// The gate is closed, so the count only falls, apart from an
	// entrant's transient increment before it sees the state and backs
	// out, and the nested entries an open hold admits.
	deadline := time.Now().Add(timeout)
	for g.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			g.mu.Lock()
			g.endDrainLocked(false)
			g.mu.Unlock()
			return kbase.EBUSY
		}
		time.Sleep(50 * time.Microsecond)
	}
	return kbase.EOK
}

// Open ends a drain healthy: it advances the epoch, returns the gate to
// Healthy and releases every queued caller into its call. If a fault
// hit the drain, the gate quarantines instead and keeps its epoch. It
// returns the epoch.
func (g *Gate) Open() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.endDrainLocked(true)
	return g.epoch.Load()
}

// Quarantine ends a drain whose restart failed: the gate goes back to
// Quarantined and every queued caller is released into ESHUTDOWN
// rather than left blocked.
func (g *Gate) Quarantine() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.faulted = false
	g.setState(Quarantined)
	g.cond.Broadcast()
}

// endDrainLocked ends the owner's drain: Healthy (with a new epoch if
// advance), or Quarantined if a fault hit the drain. It releases every
// queued caller and any Close waiting for the owner. The caller holds
// mu.
func (g *Gate) endDrainLocked(advance bool) {
	if g.faulted {
		g.faulted = false
		g.setState(Quarantined)
	} else {
		if advance {
			g.epoch.Add(1)
		}
		g.setState(Healthy)
	}
	g.cond.Broadcast()
}

// CollectMetrics enumerates the gate's counters and state for the
// ktrace metrics registry.
func (g *Gate) CollectMetrics(emit func(name string, value uint64)) {
	emit("entered", g.entered.Load())
	emit("rejected", g.rejected.Load())
	emit("faults", g.faults.Load())
	emit("state", uint64(g.State()))
	emit("inflight", uint64(g.inflight.Load()))
}
