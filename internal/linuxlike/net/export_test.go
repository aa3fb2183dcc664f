package net

import "safelinux/internal/linuxlike/kbase"

// InUse reports whether a port has live users (always false below the
// ephemeral base).
func (pa *PortAlloc) InUse(port uint16) bool {
	if port < EphemeralBase {
		return false
	}
	return pa.refs[port-EphemeralBase] > 0
}

// BindUDP creates a datagram socket on port (0 = ephemeral).
func (h *Host) BindUDP(port uint16) (*Socket, kbase.Errno) {
	if port == 0 {
		p, err := h.ports.AllocEphemeral()
		if err != kbase.EOK {
			return nil, err
		}
		port = p
	} else {
		if _, dup := h.udpSocks[port]; dup {
			return nil, kbase.EEXIST
		}
		h.ports.Acquire(port)
	}
	s := &Socket{host: h, Proto: ProtoUDP, LocalPort: port, private: &udpState{}}
	h.udpSocks[port] = s
	return s, kbase.EOK
}

// SendTo transmits one datagram from a UDP socket.
func (s *Socket) SendTo(dst Addr, dport uint16, data []byte) kbase.Errno {
	if s.Proto != ProtoUDP {
		return kbase.EPROTO
	}
	if len(data) > 64*1024-udpHeaderLen {
		return kbase.EMSGSIZE
	}
	dg := udpDatagram{SrcPort: s.LocalPort, DstPort: dport, Payload: data}
	pkt := NewPacket(udpHeaderLen + len(data))
	dg.marshal(pkt.Transport())
	return s.host.SendIP(dst, ProtoUDP, pkt)
}

// RecvFrom dequeues one datagram.
func (s *Socket) RecvFrom(buf []byte) (int, Addr, uint16, kbase.Errno) {
	if s.Proto != ProtoUDP {
		return 0, 0, 0, kbase.EPROTO
	}
	st, ok := s.private.(*udpState)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "net", "RecvFrom: private is %T", s.private)
		return 0, 0, 0, kbase.EUCLEAN
	}
	if len(st.queue) == 0 {
		return 0, 0, 0, kbase.EAGAIN
	}
	dg := st.queue[0]
	from := st.from[0]
	st.queue = st.queue[1:]
	st.from = st.from[1:]
	n := copy(buf, dg.Payload)
	return n, from, dg.SrcPort, kbase.EOK
}

// State reports the TCP state name (or "udp"/"?" otherwise).
func (s *Socket) State() string {
	if tcb, ok := s.private.(*TCB); ok {
		return tcb.State.String()
	}
	if s.Proto == ProtoUDP {
		return "udp"
	}
	return "?"
}

// BufferedRecv returns the number of bytes waiting in the receive
// buffer — generic code reading TCP internals, again.
func (s *Socket) BufferedRecv() int {
	if tcb, ok := s.private.(*TCB); ok {
		return len(tcb.recvBuf)
	}
	return 0
}
