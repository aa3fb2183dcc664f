package ktrace

import (
	"sync/atomic"

	"safelinux/internal/linuxlike/ebpflike"
	"safelinux/internal/linuxlike/kbase"
)

// ebpflike programs as tracepoint probes.
//
// This is the paper's §5 contrast made into a working feature: the
// verified register machine cannot host a file system, but it is
// exactly the right shape for dynamic observability — a filter or
// aggregator attached to a tracepoint, guaranteed to terminate and to
// touch nothing outside the event record handed to it. The event's
// fixed binary context (Event.CtxBytes) is the verified window.

// Probe is one ebpflike program attached to a tracepoint. The
// program's return value is the verdict: nonzero keeps the event,
// zero filters it out of the ring (the tracepoint's Filtered counter
// ticks instead of Hits).
type Probe struct {
	tp   *Tracepoint
	prog *ebpflike.Program

	matched  atomic.Uint64 // verdict nonzero
	dropped  atomic.Uint64 // verdict zero
	runErrs  atomic.Uint64 // program runtime faults (event kept, fail-open)
	detached atomic.Bool
}

// Attach installs a verified program on a tracepoint and enables the
// tracepoint (reference counted; Detach drops the reference). The
// program must have been verified against a context no larger than
// EventCtxSize, or EINVAL is returned — the verifier's bounds are
// only meaningful for the window the event actually provides.
func Attach(tp *Tracepoint, prog *ebpflike.Program) (*Probe, kbase.Errno) {
	if tp == nil || prog == nil {
		return nil, kbase.EINVAL
	}
	if prog.CtxSize() <= 0 || prog.CtxSize() > EventCtxSize {
		return nil, kbase.EINVAL
	}
	p := &Probe{tp: tp, prog: prog}
	regMu.Lock()
	old := tp.probes.Load()
	var next []*Probe
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, p)
	tp.probes.Store(&next)
	regMu.Unlock()
	tp.Enable()
	return p, kbase.EOK
}

// Detach removes the probe from its tracepoint and drops the enable
// reference Attach took. Idempotent.
func (p *Probe) Detach() {
	if p.detached.Swap(true) {
		return
	}
	regMu.Lock()
	if old := p.tp.probes.Load(); old != nil {
		next := make([]*Probe, 0, len(*old))
		for _, q := range *old {
			if q != p {
				next = append(next, q)
			}
		}
		if len(next) == 0 {
			p.tp.probes.Store(nil)
		} else {
			p.tp.probes.Store(&next)
		}
	}
	regMu.Unlock()
	p.tp.Disable()
}

// ProbeGuard is the crash-containment hook for probe evaluation:
// when installed, every program run crosses it, so a panic inside the
// ebpflike machine quarantines the observability compartment (fail
// open: the event is kept) instead of crashing the emitting kernel
// path. Satisfied by gate.Gate.GuardProbe. The guard's
// compartment must be quiet — probe evaluation happens inside
// tracepoint emission, and a boundary that emitted tracepoints from
// here would recurse.
type ProbeGuard func(run func() bool) bool

var probeGuard atomic.Pointer[ProbeGuard]

// SetProbeGuard installs (or, with nil, removes) the containment
// guard around ebpflike probe evaluation.
func SetProbeGuard(g ProbeGuard) {
	if g == nil {
		probeGuard.Store(nil)
		return
	}
	probeGuard.Store(&g)
}

// keep runs the program over the event and returns the verdict. A
// runtime fault (register-relative out-of-bounds read, division by a
// zero register) keeps the event and counts an error: a broken
// observer must not hide kernel activity. The same fail-open rule
// extends to the containment guard: a contained panic or a
// quarantined observability compartment keeps the event.
func (p *Probe) keep(ev *Event) bool {
	if g := probeGuard.Load(); g != nil {
		return (*g)(func() bool { return p.run(ev) })
	}
	return p.run(ev)
}

func (p *Probe) run(ev *Event) bool {
	ctx := ev.CtxBytes()
	ret, err := p.prog.Run(ctx[:])
	if err != kbase.EOK {
		p.runErrs.Add(1)
		return true
	}
	if ret == 0 {
		p.dropped.Add(1)
		return false
	}
	p.matched.Add(1)
	return true
}

// Matched returns how many events the program kept.
func (p *Probe) Matched() uint64 { return p.matched.Load() }

// Dropped returns how many events the program filtered out.
func (p *Probe) Dropped() uint64 { return p.dropped.Load() }

// RunErrs returns how many runs faulted at runtime.
func (p *Probe) RunErrs() uint64 { return p.runErrs.Load() }
