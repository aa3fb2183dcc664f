package net

import (
	"safelinux/internal/linuxlike/kbase"
)

// Crash containment for the network stack.
//
// The host's protocol machinery — legacy TCB handling or an installed
// StreamProto like safetcp — runs entirely inside two entry points
// driven by the simulator: receive (inbound segment dispatch) and tick
// (timers). Routing those through a containment boundary means a panic
// anywhere in protocol code is recovered at the dispatch line: the
// compartment quarantines, subsequent packets are dropped (counted in
// the host's net.contained metric) instead of crashing the kernel, and
// the supervisor rebuilds the stack with ResetStreams + a fresh
// protocol attach.
//
// Socket-level calls (Send/Recv/Accept) are NOT individually guarded:
// a caller that wants containment for a whole client interaction wraps
// it in one boundary entry (see safelinux.Kernel.StreamRoundTrip),
// which also makes hot-swap drains align with interaction boundaries —
// a drain never lands between a connect and its close.

// Boundary is the containment hook, satisfied by
// *compartment.Compartment (structural typing keeps this package free
// of a safety-layer import).
type Boundary interface {
	Run(op string, fn func() kbase.Errno) kbase.Errno
}

type boundaryBox struct{ b Boundary }

// SetBoundary installs (or, with nil, removes) the containment
// boundary around the host's packet and timer dispatch.
func (h *Host) SetBoundary(b Boundary) {
	if b == nil {
		h.boundary.Store(nil)
		return
	}
	h.boundary.Store(&boundaryBox{b: b})
}

// guardReceive gates one inbound packet dispatch through the
// boundary. A contained fault or a quarantined compartment surfaces
// as a dropped packet, counted in stats.Contained. With no boundary
// installed, the dispatch runs direct — no closure, no allocation.
func (h *Host) guardReceive(pkt Packet) {
	box := h.boundary.Load()
	if box == nil {
		h.doReceive(pkt)
		return
	}
	if err := box.b.Run("rx", func() kbase.Errno { h.doReceive(pkt); return kbase.EOK }); err != kbase.EOK {
		h.stats.Contained++
	}
}

// guardTick gates one timer tick through the boundary, with the same
// no-boundary fast path as guardReceive.
func (h *Host) guardTick(now uint64) {
	box := h.boundary.Load()
	if box == nil {
		h.doTick(now)
		return
	}
	if err := box.b.Run("tick", func() kbase.Errno { h.doTick(now); return kbase.EOK }); err != kbase.EOK {
		h.stats.Contained++
	}
}

// ResetStreams tears the protocol state down to a clean slate: every
// TCP connection, listener and pending handshake is discarded and any
// modular stream protocol is uninstalled (UDP sockets survive — they
// hold no protocol state machine). The containment supervisor calls
// this while the boundary is drained, then re-attaches the protocol
// the registry currently binds. Existing sockets turn dead: their
// operations fail as the crash semantics of the stack that died.
func (h *Host) ResetStreams() {
	h.demux = NewDemuxTable[*Socket]()
	h.wheel = kbase.NewTimerWheel[*TCB](h.sim.clock.Now())
	h.wheel.OnCascade = func(level, moved int) {
		tpWheelCascade.Emit(0, uint64(level), uint64(moved))
		wheelCascadeHist.Record(uint64(moved))
	}
	h.dead = h.dead[:0]
	h.listeners = make(map[uint16]*Socket)
	h.streamProto = nil
	// Rebuild the port space: every TCP port frees; the surviving UDP
	// sockets re-reserve theirs.
	h.ports = NewPortAlloc()
	for p := range h.udpSocks {
		h.ports.Acquire(p)
	}
}
