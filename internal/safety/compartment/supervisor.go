package compartment

import (
	"sync"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

// Options configures one compartment registered with a Plane.
type Options struct {
	// Quiet suppresses tracepoint emission from the boundary (required
	// for the ebpflike compartment, whose boundary is crossed from
	// inside probe evaluation).
	Quiet bool
	// Poisoned enumerates ownership-checker labels of live shared
	// state at fault time (typically own.Checker.LiveLabels with the
	// subsystem's label prefix).
	Poisoned func() []string
	// Restart rebuilds the subsystem from clean state. It runs on a
	// supervisor task (gate bypass) with the compartment drained; a
	// non-EOK return or a panic leaves the compartment quarantined.
	Restart func(task *kbase.Task) kbase.Errno
}

// Plane is the kernel's containment supervisor: the registry of
// compartments, the fault log, and the restart machinery. It lives in
// the trusted core — a Plane never runs subsystem code except through
// the Restart hooks, on a drained compartment.
type Plane struct {
	mu      sync.Mutex
	comps   map[string]*Compartment
	restart map[string]func(task *kbase.Task) kbase.Errno
	order   []string
	faults  []Fault
	auto    bool

	// pending tracks in-flight auto-restart goroutines so tests and
	// shutdown can wait for the plane to settle.
	pending sync.WaitGroup
}

// NewPlane creates an empty supervisor plane with auto-restart on.
func NewPlane() *Plane {
	return &Plane{
		comps:   make(map[string]*Compartment),
		restart: make(map[string]func(task *kbase.Task) kbase.Errno),
		auto:    true,
	}
}

// Add creates and registers a compartment named name. Registering the
// same name twice returns the existing compartment unchanged.
func (p *Plane) Add(name string, opt Options) *Compartment {
	p.mu.Lock()
	if c, ok := p.comps[name]; ok {
		p.mu.Unlock()
		return c
	}
	c := New(name)
	c.SetQuiet(opt.Quiet)
	if opt.Poisoned != nil {
		c.SetPoisonFn(opt.Poisoned)
	}
	p.comps[name] = c
	if opt.Restart != nil {
		p.restart[name] = opt.Restart
	}
	p.order = append(p.order, name)
	p.mu.Unlock()
	c.SetFaultHandler(func(f Fault) { p.onFault(c, f) })
	return c
}

// Get returns the compartment named name, or nil.
func (p *Plane) Get(name string) *Compartment {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comps[name]
}

// Names lists registered compartments in registration order.
//
//kerncheck:ignore deadexport the supervisor's control surface, driven by pkg/safelinux's containment and panic-storm tests
func (p *Plane) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// SetAutoRestart controls whether a fault schedules an automatic
// restart (default on). With it off, faulted compartments stay
// quarantined until Restart is called explicitly — the mode the
// quarantine-semantics tests use.
//
//kerncheck:ignore deadexport the supervisor's control surface, driven by pkg/safelinux's containment and panic-storm tests
func (p *Plane) SetAutoRestart(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.auto = on
}

// Faults returns a copy of the fault log, oldest first.
//
//kerncheck:ignore deadexport the supervisor's control surface, driven by pkg/safelinux's containment and panic-storm tests
func (p *Plane) Faults() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fault, len(p.faults))
	copy(out, p.faults)
	return out
}

// onFault records the fault and, with auto-restart on, schedules the
// restart on a fresh goroutine. It must not restart synchronously: the
// faulting call is still counted in-flight while the fault handler
// runs, so a synchronous drain would wait on its own caller.
func (p *Plane) onFault(c *Compartment, f Fault) {
	p.mu.Lock()
	p.faults = append(p.faults, f)
	auto := p.auto
	_, canRestart := p.restart[c.Name()]
	if auto && canRestart {
		p.pending.Add(1)
	}
	p.mu.Unlock()
	if auto && canRestart {
		go func() {
			defer p.pending.Done()
			if err := p.Restart(c.Name()); err != kbase.EOK {
				// A failed auto-restart must not vanish: the compartment
				// is still quarantined, and a fault log that showed only
				// the original crash would read as a clean recovery.
				p.mu.Lock()
				p.faults = append(p.faults, Fault{
					Compartment: c.Name(),
					Epoch:       f.Epoch,
					Panic:       "auto-restart failed: " + err.Error(),
					Reported:    true, // no oops site: the hook returned, not panicked
				})
				p.mu.Unlock()
			}
		}()
	}
}

// Restart drains the named compartment (waiting out the unwinding
// faulted call, if any), runs its Restart hook on a supervisor task,
// and returns it to Healthy. A hook failure or panic re-quarantines.
// Restarting a healthy compartment is allowed (used by HotSwap to
// rebind after a module swap).
func (p *Plane) Restart(name string) kbase.Errno {
	p.mu.Lock()
	c := p.comps[name]
	fn := p.restart[name]
	p.mu.Unlock()
	if c == nil {
		return kbase.ENOENT
	}
	if fn == nil {
		return kbase.ENOSYS
	}
	if err := c.BeginDrain(gate.Restarting); err != kbase.EOK {
		return err
	}
	task := kbase.NewSupervisorTask()
	err := func() (err kbase.Errno) {
		defer func() {
			if r := recover(); r != nil {
				err = kbase.EFAULT
			}
		}()
		return fn(task)
	}()
	if err != kbase.EOK {
		// Rebuild failed: back to quarantine, release queued callers
		// into the fail-fast path rather than leaving them blocked.
		c.Quarantine()
		return err
	}
	c.EndDrain("restart", 0)
	return kbase.EOK
}

// Settle blocks until every scheduled auto-restart has completed.
func (p *Plane) Settle() { p.pending.Wait() }

// WaitHealthy polls until the named compartment is Healthy or the
// timeout elapses, reporting success.
//
//kerncheck:ignore deadexport the supervisor's control surface, driven by pkg/safelinux's containment and panic-storm tests
func (p *Plane) WaitHealthy(name string, timeout time.Duration) bool {
	c := p.Get(name)
	if c == nil {
		return false
	}
	deadline := time.Now().Add(timeout)
	for {
		if c.State() == gate.Healthy {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// AllHealthy reports whether every registered compartment is Healthy.
func (p *Plane) AllHealthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.comps {
		if c.State() != gate.Healthy {
			return false
		}
	}
	return true
}

// RegisterMetrics registers one collector per compartment
// ("compartment_<name>") plus a plane-level collector ("compartment")
// with fault-log depth and auto-restart state.
func (p *Plane) RegisterMetrics(m *ktrace.Metrics) {
	p.mu.Lock()
	names := make([]string, len(p.order))
	copy(names, p.order)
	p.mu.Unlock()
	for _, name := range names {
		c := p.Get(name)
		m.Register("compartment_"+name, c.CollectMetrics)
	}
	m.Register("compartment", func(emit func(name string, value uint64)) {
		p.mu.Lock()
		faults := uint64(len(p.faults))
		auto := p.auto
		n := uint64(len(p.comps))
		p.mu.Unlock()
		emit("faults_logged", faults)
		emit("compartments", n)
		if auto {
			emit("auto_restart", 1)
		} else {
			emit("auto_restart", 0)
		}
	})
}
