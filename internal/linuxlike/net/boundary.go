package net

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/gate"
)

// Crash containment for the network stack.
//
// The host's protocol machinery — legacy TCB handling or an installed
// StreamProto like safetcp — runs entirely inside two entry points
// driven by the simulator: receive (inbound segment dispatch) and tick
// (timers). Routing those through a containment gate means a panic
// anywhere in protocol code is recovered at the dispatch line: the
// compartment quarantines, subsequent packets are dropped (counted in
// the host's net.contained metric) instead of crashing the kernel, and
// the supervisor rebuilds the stack with ResetStreams + a fresh
// protocol attach. The gate is the concrete trusted-core type, so a
// crossing is a static call that takes no lock and allocates nothing,
// and this package never imports the safety layer's policy.
//
// Socket-level calls (Send/Recv/Accept) are NOT individually guarded:
// a caller that wants containment for a whole client interaction wraps
// it in one gate hold (see safelinux.Kernel.StreamRoundTrip), which
// also makes hot-swap drains align with interaction boundaries — a
// drain never lands between a connect and its close.

// SetGate installs (or, with nil, removes) the containment gate around
// the host's packet and timer dispatch.
func (h *Host) SetGate(g *gate.Gate) { h.gate.Store(g) }

// guardReceive gates one inbound packet dispatch. A contained fault or
// a quarantined compartment surfaces as a dropped packet, counted in
// stats.Contained.
func (h *Host) guardReceive(pkt Packet) {
	g := h.gate.Load()
	if g == nil {
		h.doReceive(pkt)
		return
	}
	if err := g.Run("rx", func() kbase.Errno { h.doReceive(pkt); return kbase.EOK }); err != kbase.EOK {
		h.stats.Contained++
	}
}

// guardTick gates one timer tick, like guardReceive.
func (h *Host) guardTick(now uint64) {
	g := h.gate.Load()
	if g == nil {
		h.doTick(now)
		return
	}
	if err := g.Run("tick", func() kbase.Errno { h.doTick(now); return kbase.EOK }); err != kbase.EOK {
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
