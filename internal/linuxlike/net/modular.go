package net

import "safelinux/internal/linuxlike/kbase"

// Modular interface retrofit (the paper's Step 1 applied to the
// subsystem §4.1 calls out: "while Linux sockets support multiple
// protocol families ... references to TCP state can be found
// throughout generic socket code").
//
// StreamProto is the extracted modular interface for a stream
// transport. Once a host installs one, the generic layer stops
// touching protocol internals: inbound transport payloads and timer
// ticks are delivered through this interface and nothing else. The
// legacy TCB-poking paths remain for hosts that haven't been
// migrated — that is the incremental part.

// StreamProto is the modular stream-transport interface.
type StreamProto interface {
	// ProtoName identifies the implementation.
	ProtoName() string
	// HandleSegment delivers one inbound transport payload.
	HandleSegment(src Addr, payload []byte)
	// Tick advances retransmission and connection timers.
	Tick(now uint64)
}

// InstallStreamProto replaces the host's TCP handling with a modular
// implementation. Installing nil reverts to the legacy stack.
func (h *Host) InstallStreamProto(p StreamProto) {
	h.streamProto = p
}

// StreamProtoName returns the installed implementation's name, or
// "legacy-tcp".
func (h *Host) StreamProtoName() string {
	if h.streamProto != nil {
		return h.streamProto.ProtoName()
	}
	return "legacy-tcp"
}

// SendIP fills pkt's IP-lite header and transmits it to dst — the
// downcall a protocol uses instead of reaching into the host. The
// caller has written its transport header and payload into
// pkt.Transport(); after SendIP the packet belongs to the wire and
// must not be written again.
func (h *Host) SendIP(dst Addr, proto byte, pkt Packet) kbase.Errno {
	pkt.fillIP(h.addr, dst, proto)
	return h.sim.send(h.addr, dst, pkt)
}

// Now returns the current simulation time (for protocol timers).
func (h *Host) Now() uint64 { return h.sim.clock.Now() }
