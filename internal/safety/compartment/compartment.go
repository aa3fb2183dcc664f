// Package compartment implements crash containment boundaries for the
// simulated kernel: the production version of the paper's end state,
// where every subsystem outside a small trusted core (kbase, ktrace,
// own, the gate, the module registry) runs behind a boundary that
// contains its faults. The design follows the compartmentalization line
// of work in PAPERS.md — "Securing Monolithic Kernels using
// Compartmentalization" and Asterinas' framekernel — adapted to the
// repo's Go substrate.
//
// A Compartment wraps one swappable subsystem (fs, net, buffer cache,
// kio, ebpflike). It embeds the crossing mechanism, a *gate.Gate: the
// subsystem holds that gate and routes every call across the boundary
// through its Do/Run, which
//
//   - admits the call on the gate state (a lock-free state word plus
//     an in-flight counter — the same gate serves quarantine and the
//     hot-swap drain protocol),
//   - recovers any panic raised inside the compartment and converts it
//     to a typed kernel error (EFAULT), and quarantines the gate:
//     subsequent calls fail fast with ESHUTDOWN.
//
// The Compartment adds the policy on top. On a fault it reports the
// panic through the kbase oops path exactly once (a recovered
// *kbase.PanicReport has already been reported by BUG; a raw panic has
// not), consults the ownership checker to enumerate shared state the
// dead compartment may have poisoned, records the Fault, and notifies
// the supervisor (supervisor.go), which restarts it from clean state
// while the rest of the kernel keeps serving. It also owns the
// drain/restart API (BeginDrain/EndDrain) with its counters,
// histograms and tracepoints.
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
// operations, observed only as latency (Kernel.UpgradeFS/UpgradeTCP).
// Quarantined is the crash path: new entries fail fast, nothing
// blocks. A fault during a drain waits for the drain's owner: new
// entries fail fast at once, and EndDrain quarantines instead of
// reopening. Restarting behaves like Draining for entry purposes (callers
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
	"safelinux/internal/safety/gate"
)

// Tracepoints of the containment policy (compartment:enter is the
// gate's). Args:
//
//	compartment:fault      a0=name hash, a1=1 if already-reported BUG panic
//	compartment:quarantine a0=name hash, a1=poisoned cell count
//	compartment:restart    a0=name hash, a1=new epoch
//	compartment:swap       a0=name hash, a1=drain wait in microseconds
var (
	tpFault      = ktrace.New("compartment:fault")
	tpQuarantine = ktrace.New("compartment:quarantine")
	tpRestart    = ktrace.New("compartment:restart")
	tpSwap       = ktrace.New("compartment:swap")
)

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

// Compartment is one crash-containment boundary around a subsystem:
// the gate the subsystem crosses, plus the fault and drain policy.
// Create with New; the zero value is not usable.
type Compartment struct {
	*gate.Gate

	mu sync.Mutex
	// lastFault is retained for Quarantined state inspection.
	lastFault *Fault
	// poisonFn enumerates ownership-checker labels of live state held
	// by this compartment (nil = no enumeration).
	poisonFn func() []string
	// onFault notifies the supervisor of a fault after quarantine is
	// in effect. Called without mu held.
	onFault func(Fault)

	// Drain-cycle counters, exported via CollectMetrics beside the
	// gate's crossing counters.
	restarts atomic.Uint64 // successful restarts
	swaps    atomic.Uint64 // successful hot-swaps
	drains   atomic.Uint64 // drain cycles (swap + restart)
}

// New creates a healthy compartment named name.
func New(name string) *Compartment {
	c := &Compartment{}
	c.Gate = gate.New(name, c.fault)
	return c
}

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

// fault is the gate's fault hook: the gate has already quarantined.
// Classify the panic, enumerate poisoned state, record the fault,
// report it through the oops path at most once, and notify the
// supervisor.
func (c *Compartment) fault(task *kbase.Task, op string, epoch uint64, r any) {
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

	c.mu.Lock()
	poisonFn, onFault := c.poisonFn, c.onFault
	c.mu.Unlock()

	var poisoned []string
	if poisonFn != nil {
		poisoned = poisonFn()
	}

	f := Fault{
		Compartment: c.Name(), Epoch: epoch,
		Panic: msg, Reported: reported, Poisoned: poisoned,
	}
	c.mu.Lock()
	c.lastFault = &f
	c.mu.Unlock()

	if !c.Quiet() {
		var rep uint64
		if reported {
			rep = 1
		}
		nameHash := ktrace.Hash(c.Name())
		tpFault.Emit(task.ID(), nameHash, rep)
		tpQuarantine.Emit(task.ID(), nameHash, uint64(len(poisoned)))
	}

	// Oops-once layering: a raw panic has not been through the oops
	// path yet, so report it here — but only with a recorder installed;
	// with none, Oops itself panics, which would turn containment back
	// into a crash.
	if !reported && kbase.RecorderInstalled() {
		kbase.Oops(kbase.OopsGeneric, c.Name(), "contained panic in %s: %s", op, msg)
	}

	if onFault != nil {
		onFault(f)
	}
}

// DrainTimeout bounds how long BeginDrain waits for in-flight
// operations to retire before giving up with EBUSY.
const DrainTimeout = 5 * time.Second

// BeginDrain moves the compartment to target (gate.Draining for a
// swap, gate.Restarting for a restart), blocks new entries, and waits
// until every in-flight operation has retired. It returns EBUSY
// without changing state if the drain does not complete within
// DrainTimeout, and EBUSY if a drain or restart is already in
// progress. On EOK the caller owns the compartment exclusively until
// EndDrain.
//
// A quarantined compartment can BeginDrain(gate.Restarting) — that is
// the supervisor's restart path; there are no in-flight entries to
// wait for (the gate rejected them) but the faulted one that is
// unwinding. A fault inside another owner's drain does not quarantine
// the gate at once, so the restart it calls for waits here until that
// owner's EndDrain has quarantined it: one drain owner at a time.
func (c *Compartment) BeginDrain(target gate.State) kbase.Errno {
	start := time.Now()
	if err := c.Close(target, DrainTimeout); err != kbase.EOK {
		return err
	}
	drainHist.Record(uint64(time.Since(start)))
	c.drains.Add(1)
	return kbase.EOK
}

// EndDrain completes a drain cycle: return the gate to Healthy with a
// new epoch, clear the fault record, release every queued caller, and
// record the outcome. kind selects the counter and tracepoint ("swap"
// or "restart"); waited is the drain duration for the swap tracepoint.
// If a fault hit the drain, the gate quarantines instead and the
// supervisor's restart, waiting in BeginDrain, takes it from there.
func (c *Compartment) EndDrain(kind string, waited time.Duration) {
	epoch := c.Open()
	c.mu.Lock()
	if c.lastFault != nil && c.lastFault.Epoch < epoch {
		c.lastFault = nil
	}
	c.mu.Unlock()
	switch kind {
	case "swap":
		c.swaps.Add(1)
		swapHist.Record(uint64(waited))
		if !c.Quiet() {
			tpSwap.Emit(0, ktrace.Hash(c.Name()), uint64(waited.Microseconds()))
		}
	case "restart":
		c.restarts.Add(1)
		if !c.Quiet() {
			tpRestart.Emit(0, ktrace.Hash(c.Name()), epoch)
		}
	}
}

// CollectMetrics enumerates the gate's counters and the drain-cycle
// counters for the ktrace metrics registry (register as
// "compartment_<name>").
func (c *Compartment) CollectMetrics(emit func(name string, value uint64)) {
	c.Gate.CollectMetrics(emit)
	emit("restarts", c.restarts.Load())
	emit("swaps", c.swaps.Load())
	emit("drains", c.drains.Load())
}
