// Compartment kernel: crash containment boundaries and live module
// replacement for the assembled kernel.
//
// With Config.Compartments set, New wraps every swappable subsystem in
// a containment compartment and starts a supervisor plane over them:
//
//	fs    — the VFS public surface (and everything below it: the
//	        mounted file system, dcache, journal)
//	net   — both hosts' packet and timer dispatch (the protocol
//	        machinery, legacy TCB or installed StreamProto)
//	buf   — the root file system's buffer cache entry points
//	kio   — I/O engine batch execution
//	ebpf  — verified probe evaluation inside tracepoint emission
//	        (quiet: its boundary must not emit tracepoints)
//
// A panic inside any of these comes back to the caller as a typed
// EFAULT, the compartment quarantines (subsequent calls fail fast with
// ESHUTDOWN), the ownership checker enumerates the shared state the
// dead compartment still held, and the supervisor rebuilds the
// subsystem from clean state — remount with journal/log recovery for
// fs, a protocol re-attach for net, a cache invalidation that keeps
// the journal's buffers for buf, a fresh engine for kio — while the
// rest of the kernel keeps serving.
//
// The same in-flight gate carries UpgradeFS and UpgradeTCP: drain the
// compartment (new entries queue, in-flight entries retire), migrate
// the module on a supervisor task, swap the registry binding, and
// release the queued callers — a live module replacement under load
// with zero dropped operations, observed only as latency
// (TestUpgradeUnderMixedLoad).
package safelinux

import (
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/compartment"
)

// enableCompartments builds the containment plane and installs a
// compartment's gate on every swappable subsystem. Called from New when
// Config.Compartments is set.
func (k *Kernel) enableCompartments() {
	p := compartment.NewPlane()
	k.Plane = p

	fs := p.Add("fs", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("safefs:") },
		Restart:  k.restartFS,
	})
	k.VFS.SetGate(fs.Gate)

	netc := p.Add("net", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("safetcp") },
		Restart:  k.restartNet,
	})
	k.hostA.SetGate(netc.Gate)
	k.hostB.SetGate(netc.Gate)

	p.Add("buf", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("bufcache") },
		Restart:  k.restartBuf,
	})

	kioC := p.Add("kio", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("kio") },
		Restart:  k.restartKio,
	})
	k.ioEngine.SetGate(kioC.Gate)

	// The observability compartment has no subsystem state to rebuild:
	// ebpflike programs are verified, stateless register machines, so a
	// restart only clears the quarantine. Quiet — its boundary runs
	// inside tracepoint emission and must not emit tracepoints itself.
	ebpf := p.Add("ebpf", compartment.Options{
		Quiet:   true,
		Restart: func(*kbase.Task) kbase.Errno { return kbase.EOK },
	})
	ktrace.SetProbeGuard(ebpf.GuardProbe)

	k.wireRootFS(k.Task)
}

// wireRootFS (re)wires per-instance plumbing onto the currently
// mounted root file system: the kernel's kio engine behind its buffer
// cache (and so behind its journal) and, with compartments on, the
// buffer-cache gate. Called at boot, at enable time and again from
// restart hooks, which hand in a supervisor task so the resolve
// bypasses a drained fs gate.
func (k *Kernel) wireRootFS(task *kbase.Task) {
	root, err := k.VFS.Resolve(task, "/")
	if err != kbase.EOK {
		return
	}
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		return // safefs root: no buffer cache, no kio consumer
	}
	if k.Plane != nil {
		if c := k.Plane.Get("buf"); c != nil {
			inst.Cache().SetGate(c.Gate)
		}
	}
	inst.Cache().SetEngine(k.ioEngine)
}

// restartFS rebuilds the file-system compartment from clean state.
// Crash semantics, then recovery: every open descriptor is revoked
// (subsequent use fails EBADF — open files reference state the dead
// instance may have poisoned), the root mount is force-detached
// without calling into the dead file system, and the root device is
// remounted fresh — extlike replays its journal, safefs replays its
// log — exactly the path a reboot would take, minus the reboot.
func (k *Kernel) restartFS(task *kbase.Task) kbase.Errno {
	k.VFS.CloseAll()
	// Force-detach: crash semantics. ENOENT here just means the dead
	// instance never finished mounting — either way the slate is clean.
	_ = k.VFS.DropMount("/")
	if k.fsSafe {
		data := vfs.NewMountData(&safefs.MountData{Disk: k.fsDev.Load(), Checker: k.Checker})
		if err := k.VFS.Mount(task, "/", "safefs", data); err != kbase.EOK {
			return err
		}
	} else {
		if err := k.VFS.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: k.rootDev})); err != kbase.EOK {
			return err
		}
	}
	k.wireRootFS(task)
	return kbase.EOK
}

// restartNet rebuilds the network compartment: all protocol state on
// both hosts is discarded (established connections die with the stack
// that owned them — UDP sockets survive) and the transport the
// registry currently binds is re-attached.
func (k *Kernel) restartNet(task *kbase.Task) kbase.Errno {
	k.hostA.ResetStreams()
	k.hostB.ResetStreams()
	if k.tcpSafe {
		k.safeEPA = safetcp.Attach(k.hostA, k.Checker)
		k.safeEPB = safetcp.Attach(k.hostB, k.Checker)
	}
	return kbase.EOK
}

// restartBuf rebuilds the buffer-cache compartment by dropping every
// cached buffer the journal does not hold: readers re-fetch from the
// device, and unfsynced file data is lost as in a crash. Buffers joined
// to the running transaction and committed metadata awaiting its
// checkpoint belong to the fs compartment's journal and stay (see
// bufcache.Cache.Invalidate).
func (k *Kernel) restartBuf(task *kbase.Task) kbase.Errno {
	root, err := k.VFS.Resolve(task, "/")
	if err != kbase.EOK {
		return err
	}
	if inst, ok := extlike.InstanceOf(root.Sb); ok {
		inst.Cache().Invalidate()
	}
	return kbase.EOK
}

// restartKio replaces the I/O engine with a fresh one, re-wires the
// buffer cache (and so the journal) onto it, and closes the dead
// engine: a batch still built on it completes with ENODEV.
func (k *Kernel) restartKio(task *kbase.Task) kbase.Errno {
	old := k.ioEngine
	k.ioEngine = kio.New(k.rootDev)
	if c := k.Plane.Get("kio"); c != nil {
		k.ioEngine.SetGate(c.Gate)
	}
	k.wireRootFS(task)
	old.Close()
	return kbase.EOK
}

// StreamRoundTrip performs one complete client interaction on the
// kernel's stream transport — listen on host B, connect from host A,
// send payload, echo it back, verify, close — driving the network
// simulator itself until each phase completes. With compartments on,
// the whole interaction runs under a single net-compartment hold, so a
// hot-swap or restart drain lands between interactions, never inside
// one: an in-flight interaction finishes on the stack it started on,
// the next queued one starts on the new stack.
//
//kerncheck:ignore deadexport the drain-aligned client interaction that pkg/safelinux's upgrade and containment tests drive
func (k *Kernel) StreamRoundTrip(port uint16, payload []byte) kbase.Errno {
	if k.Plane != nil {
		if c := k.Plane.Get("net"); c != nil {
			release, err := c.Hold(k.Task, "roundtrip")
			if err != kbase.EOK {
				return err
			}
			defer release()
		}
	}
	a, b := k.streamStacks()
	ls, err := b.ListenStream(port)
	if err != kbase.EOK {
		return err
	}
	defer ls.Close()
	cl, err := a.DialStream(k.hostB.Addr(), port)
	if err != kbase.EOK {
		return err
	}
	defer cl.Close()

	var srv net.Stream
	if !k.Sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = ls.AcceptStream()
		}
		return srv != nil && cl.Established()
	}, roundTripStepBudget) {
		return kbase.ETIMEDOUT
	}
	defer srv.Close()
	if err := cl.Send(payload); err != kbase.EOK {
		return err
	}

	// Server echoes everything it receives back at the client.
	buf := make([]byte, len(payload))
	echoed, got := 0, 0
	var ioErr kbase.Errno = kbase.EOK
	if !k.Sim.RunUntil(func() bool {
		for echoed < len(payload) {
			n, e := srv.Recv(buf)
			if e == kbase.EAGAIN || n == 0 {
				break
			}
			if e != kbase.EOK {
				ioErr = e
				return true
			}
			if e := srv.Send(buf[:n]); e != kbase.EOK {
				ioErr = e
				return true
			}
			echoed += n
		}
		for got < len(payload) {
			n, e := cl.Recv(buf)
			if e == kbase.EAGAIN || n == 0 {
				break
			}
			if e != kbase.EOK {
				ioErr = e
				return true
			}
			got += n
		}
		return got >= len(payload)
	}, roundTripStepBudget) {
		return kbase.ETIMEDOUT
	}
	return ioErr
}

// roundTripStepBudget bounds how many simulator steps one round trip
// may consume before giving up with ETIMEDOUT (a quarantined net
// compartment drops every packet, and the interaction must fail typed,
// not spin).
const roundTripStepBudget = 5000

// streamStacks returns the stream stacks of host A and host B: the
// safetcp endpoints once the transport is upgraded (they are attached
// before tcpSafe is set), the hosts themselves before.
func (k *Kernel) streamStacks() (a, b net.StreamStack) {
	if k.tcpSafe {
		return k.safeEPA, k.safeEPB
	}
	return k.hostA, k.hostB
}
