// Package compartment implements crash containment boundaries for the
// simulated kernel: the production version of the paper's end state,
// where every subsystem outside a small trusted core (kbase, ktrace,
// the module registry) runs behind a boundary that contains its
// faults. The design follows the compartmentalization line of work in
// PAPERS.md — "Securing Monolithic Kernels using Compartmentalization"
// and Asterinas' framekernel — adapted to the repo's Go substrate.
//
// A Compartment wraps one swappable subsystem (fs, net, buffer cache,
// kio, ebpflike). Every call across the boundary goes through Do/Exec,
// which:
//
//   - gates entry on the compartment state (an in-flight counter plus
//     a condition variable — the same gate serves quarantine and the
//     hot-swap drain protocol),
//   - recovers any panic raised inside the compartment and converts it
//     to a typed kernel error (EFAULT), reporting it through the
//     kbase oops path exactly once (a recovered *kbase.PanicReport
//     has already been reported by BUG; a raw panic has not),
//   - on a fault, quarantines the compartment: subsequent calls fail
//     fast with ESHUTDOWN, the ownership checker is consulted to
//     enumerate shared state the dead compartment may have poisoned,
//     and the supervisor (supervisor.go) restarts it from clean state
//     while the rest of the kernel keeps serving.
//
// The state machine:
//
//	Healthy ──fault──▶ Quarantined ──restart begins──▶ Restarting ──▶ Healthy
//	   │                                                               ▲
//	   └──BeginDrain──▶ Draining ──EndDrain (swap done)────────────────┘
//
// Draining is the hot-swap path: new entries block on the gate (they
// do not fail), in-flight entries are waited out, the registry binding
// is swapped, and EndDrain releases the queued callers — zero dropped
// operations, observed as a p99 latency blip (cmd/swapbench).
// Quarantined is the crash path: new entries fail fast, nothing
// blocks. Restarting behaves like Draining for entry purposes (callers
// queue and are released on completion) so a restart is invisible to
// callers except as latency.
//
// Supervisor tasks (kbase.NewSupervisorTask) bypass the gate: the
// restart and swap paths must be able to call into the compartment
// they are draining without deadlocking on their own barrier.
package compartment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// Tracepoints of the containment plane. Args:
//
//	compartment:enter      a0=name hash, a1=epoch
//	compartment:fault      a0=name hash, a1=1 if already-reported BUG panic
//	compartment:quarantine a0=name hash, a1=poisoned cell count
//	compartment:restart    a0=name hash, a1=new epoch
//	compartment:swap       a0=name hash, a1=drain wait in microseconds
var (
	tpEnter      = ktrace.New("compartment:enter")
	tpFault      = ktrace.New("compartment:fault")
	tpQuarantine = ktrace.New("compartment:quarantine")
	tpRestart    = ktrace.New("compartment:restart")
	tpSwap       = ktrace.New("compartment:swap")
)

// State is the compartment lifecycle state.
type State int32

// The quarantine state machine (see package doc diagram).
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

// Fault describes one contained crash, as delivered to the supervisor
// and retained on the compartment for inspection.
type Fault struct {
	Compartment string
	Epoch       uint64
	// Panic is the recovered panic value rendered as a string.
	Panic string
	// Reported is true when the panic was a *kbase.PanicReport, i.e.
	// the kbase oops machinery already ran at the BUG site and the
	// boundary must not report it again.
	Reported bool
	// Poisoned lists the ownership-checker labels of shared state the
	// compartment still held live when it died — the state the rest of
	// the kernel must treat as suspect until the restart rebuilds it.
	Poisoned []string
}

func (f Fault) String() string {
	return fmt.Sprintf("compartment %q (epoch %d) faulted: %s [%d poisoned cells]",
		f.Compartment, f.Epoch, f.Panic, len(f.Poisoned))
}

// Compartment is one crash-containment boundary around a subsystem.
// Create with New; the zero value is not usable.
type Compartment struct {
	name     string
	nameHash uint64

	// quiet suppresses tracepoint emission from this compartment's
	// boundary. The ebpflike compartment must be quiet: its boundary
	// is crossed from inside ktrace probe evaluation, and emitting a
	// tracepoint from there would recurse into the probe machinery.
	quiet bool

	mu       sync.Mutex
	cond     *sync.Cond
	state    State
	inflight int
	// holds counts open interaction holds (Hold/release). While a hold
	// is open, a drain admits further entries instead of queueing them:
	// they are the held interaction's own nested work (packet delivery
	// driven from inside a StreamRoundTrip), and blocking them would
	// deadlock the drain against the interaction it is waiting out.
	holds int
	// epoch increments on every restart and swap; callers that resolve
	// a module reference per-operation observe the new binding on the
	// first entry of the new epoch.
	epoch uint64
	// lastFault is retained for Quarantined state inspection.
	lastFault *Fault

	// poisonFn enumerates ownership-checker labels of live state held
	// by this compartment (nil = no enumeration).
	poisonFn func() []string
	// onFault notifies the supervisor of a fault after quarantine is
	// in effect. Called without mu held.
	onFault func(Fault)

	// inject, when positive, counts down entries; the entry that
	// decrements it to zero panics inside the boundary. This is the
	// fault-injection hook for the panic-storm campaign.
	inject atomic.Int64

	// op is the latency-plane op for boundary crossings
	// (compartment:<name>): every admitted Do is timed into its
	// histogram and joins the caller's span tree as a child span. A
	// quiet compartment skips it for the same recursion reason it
	// skips tracepoints.
	op *ktrace.Op

	// Counters, exported via CollectMetrics.
	entered  atomic.Uint64 // boundary entries admitted
	rejected atomic.Uint64 // entries refused while quarantined
	faults   atomic.Uint64 // panics recovered at the boundary
	restarts atomic.Uint64 // successful restarts
	swaps    atomic.Uint64 // successful hot-swaps
	drains   atomic.Uint64 // drain cycles (swap + restart)
}

// New creates a healthy compartment named name.
func New(name string) *Compartment {
	c := &Compartment{name: name, nameHash: ktrace.Hash(name), op: ktrace.NewOp("compartment:" + name)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// State returns the current lifecycle state.
func (c *Compartment) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Epoch returns the current epoch (increments on restart and swap).
//
//kerncheck:ignore deadexport the supervisor's introspection surface, asserted by pkg/safelinux's containment tests
func (c *Compartment) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// LastFault returns the most recent contained fault, or nil.
//
//kerncheck:ignore deadexport the supervisor's introspection surface, asserted by pkg/safelinux's containment tests
func (c *Compartment) LastFault() *Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFault
}

// SetQuiet suppresses tracepoint emission from this boundary (see the
// quiet field: required for the ebpflike compartment).
func (c *Compartment) SetQuiet(q bool) { c.quiet = q }

// SetPoisonFn installs the ownership-state enumerator consulted at
// fault time (typically own.Checker.LiveLabels with the compartment's
// label prefix).
func (c *Compartment) SetPoisonFn(fn func() []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poisonFn = fn
}

// SetFaultHandler installs the supervisor notification hook, invoked
// (without internal locks held) after a fault has quarantined the
// compartment.
func (c *Compartment) SetFaultHandler(fn func(Fault)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onFault = fn
}

// InjectPanic arms the fault injector: the n-th subsequent boundary
// entry panics inside the compartment. n=1 means the very next entry.
//
//kerncheck:ignore deadexport fault-injection hook that pkg/safelinux's containment tests drive
func (c *Compartment) InjectPanic(n int64) { c.inject.Store(n) }

// enter admits one call across the boundary. Supervisor tasks bypass
// the gate entirely. Returns ESHUTDOWN while quarantined; blocks while
// draining or restarting.
func (c *Compartment) enter(task *kbase.Task) kbase.Errno {
	if task.Supervisor() {
		return kbase.EOK
	}
	c.mu.Lock()
	for (c.state == Draining || c.state == Restarting) && c.holds == 0 {
		c.cond.Wait()
	}
	if c.state == Quarantined {
		c.mu.Unlock()
		c.rejected.Add(1)
		return kbase.ESHUTDOWN
	}
	c.inflight++
	epoch := c.epoch
	c.mu.Unlock()
	c.entered.Add(1)
	if !c.quiet && tpEnter.Enabled() {
		tpEnter.Emit(task.ID(), c.nameHash, epoch)
	}
	return kbase.EOK
}

// exit retires one in-flight call and wakes a drainer waiting for the
// in-flight count to reach zero.
func (c *Compartment) exit(task *kbase.Task) {
	if task.Supervisor() {
		return
	}
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// fault handles a panic recovered at the boundary: classify it, report
// it through the oops path at most once, quarantine the compartment,
// enumerate poisoned state, and notify the supervisor.
func (c *Compartment) fault(task *kbase.Task, op string, r any) {
	c.faults.Add(1)

	var msg string
	reported := false
	if pr, ok := r.(*kbase.PanicReport); ok {
		// BUG already ran finalizeOops: kernel:oops tracepoint emitted,
		// flight recorder snapshotted, recorder updated. Do not report
		// a second oops for the same failure.
		msg = pr.String()
		reported = true
	} else {
		msg = fmt.Sprintf("%v", r)
	}

	// Quarantine BEFORE reporting: the oops path emits tracepoints, and
	// an attached ebpf probe could re-enter a compartment boundary; by
	// the time anything downstream of the report runs, the gate already
	// fails fast instead of recursing into the dying subsystem.
	c.mu.Lock()
	c.state = Quarantined
	epoch := c.epoch
	poisonFn, onFault := c.poisonFn, c.onFault
	c.mu.Unlock()

	var poisoned []string
	if poisonFn != nil {
		poisoned = poisonFn()
	}

	f := Fault{
		Compartment: c.name, Epoch: epoch,
		Panic: msg, Reported: reported, Poisoned: poisoned,
	}
	c.mu.Lock()
	c.lastFault = &f
	c.mu.Unlock()

	if !c.quiet {
		var rep uint64
		if reported {
			rep = 1
		}
		tpFault.Emit(task.ID(), c.nameHash, rep)
		tpQuarantine.Emit(task.ID(), c.nameHash, uint64(len(poisoned)))
	}

	// Oops-once layering (ISSUE satellite 2): a raw panic has not been
	// through the oops path yet, so report it here — but only with a
	// recorder installed; with none, Oops itself panics, which would
	// turn containment back into a crash.
	if !reported && kbase.RecorderInstalled() {
		kbase.Oops(kbase.OopsGeneric, c.name, "contained panic in %s: %s", op, msg)
	}

	if onFault != nil {
		onFault(f)
	}
}

// Do routes one call across the boundary on behalf of task. fn is the
// compartment-internal operation; its Errno passes through untouched.
// A panic inside fn is contained: Do returns EFAULT and the
// compartment quarantines. While quarantined, Do returns ESHUTDOWN
// without running fn and without blocking.
func (c *Compartment) Do(task *kbase.Task, op string, fn func() kbase.Errno) (err kbase.Errno) {
	if e := c.enter(task); e != kbase.EOK {
		return e
	}
	var t ktrace.OpTimer
	if !c.quiet {
		t = c.op.Begin(task)
	}
	defer t.End()
	defer c.exit(task)
	defer func() {
		if r := recover(); r != nil {
			c.fault(task, op, r)
			err = kbase.EFAULT
		}
	}()
	c.maybeInject(op)
	return fn()
}

// maybeInject consumes one armed injection count and panics on the
// entry that drains it to zero. Called inside the recover scope of
// every boundary flavor (Do, GuardProbe) so an injected fault is
// indistinguishable from a real one.
func (c *Compartment) maybeInject(op string) {
	if n := c.inject.Load(); n > 0 && c.inject.Add(-1) == 0 {
		panic(fmt.Sprintf("compartment %s: injected fault in %s", c.name, op))
	}
}

// Run routes a call that has no kernel task context (background
// machinery, network drivers) across the boundary.
func (c *Compartment) Run(op string, fn func() kbase.Errno) kbase.Errno {
	return c.Do(nil, op, fn)
}

// Hold opens a multi-call interaction: it takes one gate entry that
// stays in-flight until the returned release func runs, and while it
// is open a drain admits further entries instead of queueing them —
// they are the interaction's own nested work (e.g. the packet and
// timer dispatch a StreamRoundTrip drives to make progress), and
// blocking them would deadlock the drain against the very interaction
// it is waiting out. A drain therefore lands between interactions,
// never inside one. Hold itself obeys the normal entry rules: it
// queues while a drain with no open holds is pending and fails fast
// while quarantined. The release func is idempotent.
func (c *Compartment) Hold(task *kbase.Task, op string) (release func(), err kbase.Errno) {
	if e := c.enter(task); e != kbase.EOK {
		return nil, e
	}
	super := task.Supervisor()
	if !super {
		c.mu.Lock()
		c.holds++
		c.mu.Unlock()
	}
	released := false
	return func() {
		if released {
			return
		}
		released = true
		if !super {
			c.mu.Lock()
			c.holds--
			c.mu.Unlock()
		}
		c.exit(task)
	}, kbase.EOK
}

// GuardProbe wraps an ebpflike probe evaluation: contain a panic, but
// treat the compartment's quarantine as "fail open" (the event passes
// unfiltered) rather than an error, matching the probe machinery's
// existing fail-open semantics. keep reports whether the event passes.
func (c *Compartment) GuardProbe(run func() bool) (keep bool) {
	keep = true // fail open
	if e := c.enter(nil); e != kbase.EOK {
		return keep
	}
	defer c.exit(nil)
	defer func() {
		if r := recover(); r != nil {
			c.fault(nil, "probe", r)
		}
	}()
	c.maybeInject("probe")
	return run()
}

// DrainTimeout bounds how long BeginDrain waits for in-flight
// operations to retire before giving up with EBUSY.
const DrainTimeout = 5 * time.Second

// BeginDrain moves the compartment to target (Draining for a swap,
// Restarting for a restart), blocks new entries, and waits until every
// in-flight operation has retired. It returns EBUSY without changing
// state if the drain does not complete within DrainTimeout, and EBUSY
// if a drain or restart is already in progress. On EOK the caller owns
// the compartment exclusively until EndDrain.
//
// A quarantined compartment can BeginDrain(Restarting) — that is the
// supervisor's restart path; there are no in-flight entries to wait
// for (the gate rejected them) but the faulted one that is unwinding.
func (c *Compartment) BeginDrain(target State) kbase.Errno {
	if target != Draining && target != Restarting {
		return kbase.EINVAL
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case Healthy:
	case Quarantined:
		if target != Restarting {
			return kbase.EBUSY // cannot swap into a quarantined slot; restart first
		}
	default:
		return kbase.EBUSY // drain already in progress
	}
	c.state = target
	// sync.Cond has no timed wait; poll the in-flight count with a
	// deadline instead. The gate is closed, so the count only falls.
	start := time.Now()
	deadline := start.Add(DrainTimeout)
	for c.inflight > 0 {
		if time.Now().After(deadline) {
			c.state = Healthy
			c.cond.Broadcast()
			return kbase.EBUSY
		}
		c.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		c.mu.Lock()
	}
	drainHist.Record(uint64(time.Since(start)))
	c.drains.Add(1)
	return kbase.EOK
}

// EndDrain completes a drain cycle: bump the epoch, record the
// outcome, return to Healthy, and release every queued caller. kind
// selects the counter and tracepoint ("swap" or "restart");
// waited is the drain duration for the swap tracepoint.
func (c *Compartment) EndDrain(kind string, waited time.Duration) {
	c.mu.Lock()
	c.epoch++
	epoch := c.epoch
	c.state = Healthy
	c.lastFault = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	switch kind {
	case "swap":
		c.swaps.Add(1)
		swapHist.Record(uint64(waited))
		if !c.quiet {
			tpSwap.Emit(0, c.nameHash, uint64(waited.Microseconds()))
		}
	case "restart":
		c.restarts.Add(1)
		if !c.quiet {
			tpRestart.Emit(0, c.nameHash, epoch)
		}
	}
}

// CollectMetrics enumerates the boundary counters for the ktrace
// metrics registry (register as "compartment_<name>").
func (c *Compartment) CollectMetrics(emit func(name string, value uint64)) {
	emit("entered", c.entered.Load())
	emit("rejected", c.rejected.Load())
	emit("faults", c.faults.Load())
	emit("restarts", c.restarts.Load())
	emit("swaps", c.swaps.Load())
	emit("drains", c.drains.Load())
	c.mu.Lock()
	st, inflight := c.state, c.inflight
	c.mu.Unlock()
	emit("state", uint64(st))
	emit("inflight", uint64(inflight))
}
