package net

import (
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

// Latency-plane ops at the generic socket entry points. Sockets carry
// no task pointer, so these begin root spans (nil task): every send
// and receive is a kernel entry in its own right, and the op
// histograms (net.send_ns, net.recv_ns) cover both protocols.
var (
	opSend = ktrace.NewOp("net:send")
	opRecv = ktrace.NewOp("net:recv")

	// tpAcceptDrop fires when a listener's bounded backlog refuses a
	// completed handshake (a0=local port, a1=backlog drops so far).
	tpAcceptDrop = ktrace.New("net:accept_drop")
)

// The generic socket layer, in the legacy style: one Socket struct
// serves every protocol, with protocol state hung off the untyped
// Private field. Generic functions type-assert Private and poke at
// TCP internals directly — the coupling the paper's §4.1 uses as its
// motivating example ("references to TCP state can be found
// throughout generic socket code").

// Socket is the generic socket.
type Socket struct {
	host       *Host
	Proto      byte
	LocalPort  uint16
	RemoteAddr Addr
	RemotePort uint16

	// private is protocol-specific state: *TCB for TCP, *udpState
	// for UDP. Still dynamically typed underneath, but unexported:
	// foreign code can no longer stomp it, and the in-package
	// downcasts below are the only crossings.
	private any

	// Listener state: a sharded bounded accept backlog plus the
	// pending (SYN received, handshake incomplete) table.
	backlog *Backlog[*Socket]
	pending map[connKey]*Socket
}

type connKey struct {
	raddr Addr
	rport uint16
}

// udpState is the UDP socket's private state.
type udpState struct {
	queue []udpDatagram
	from  []Addr
}

// TCPTuning adjusts per-host TCP behavior; applied to TCBs created
// after SetTCPTuning.
type TCPTuning struct {
	FixedRTO   bool // disable the RTT estimator; fixed RTOJiffies timeout
	RecvWindow int  // receive window in bytes (0 = DefaultRecvWnd)
}

// Host is one network endpoint: address, demux table, timer wheel,
// port space, dispatch.
type Host struct {
	sim  *Sim
	addr Addr

	// demux is the rx fast path: 4-tuple → socket, sharded, O(1).
	demux *DemuxTable[*Socket]
	// wheel holds every connection deadline; Host.tick advances it and
	// touches only expired entries.
	wheel *kbase.TimerWheel[*TCB]
	// ports tracks the ephemeral space: bitmap + refcounts, O(1).
	ports *PortAlloc
	// dead collects connections that closed since the last tick; the
	// tick drains it, releasing tuple and port.
	dead []*Socket

	listeners map[uint16]*Socket
	udpSocks  map[uint16]*Socket
	tcpTuning TCPTuning

	// tickNow/fireFn feed the wheel's fire callback without a per-tick
	// closure allocation.
	tickNow uint64
	fireFn  func(*TCB)

	// streamProto, when installed, handles all TCP-protocol traffic
	// through the modular interface (see modular.go).
	streamProto StreamProto

	// gate, when installed, wraps packet and timer dispatch in a
	// crash-containment compartment (see boundary.go).
	gate atomic.Pointer[gate.Gate]

	// stats counts per-host activity.
	stats struct {
		Received  uint64
		BadPacket uint64
		NoSocket  uint64
		TxErrors  uint64 // transmits the link refused (no route, partition)
		Contained uint64 // dispatches dropped by the containment gate
		// ZeroWndProbes counts one-byte probes sent into a closed peer
		// window.
		ZeroWndProbes uint64
	}
}

func newHost(s *Sim, addr Addr) *Host {
	h := &Host{
		sim:       s,
		addr:      addr,
		demux:     NewDemuxTable[*Socket](),
		wheel:     kbase.NewTimerWheel[*TCB](s.clock.Now()),
		ports:     NewPortAlloc(),
		listeners: make(map[uint16]*Socket),
		udpSocks:  make(map[uint16]*Socket),
	}
	h.wheel.OnCascade = func(level, moved int) {
		tpWheelCascade.Emit(0, uint64(level), uint64(moved))
		wheelCascadeHist.Record(uint64(moved))
	}
	h.fireFn = func(t *TCB) { t.onTimer(h.tickNow) }
	return h
}

// Addr returns the host address.
func (h *Host) Addr() Addr { return h.addr }

// CollectMetrics enumerates the host counters for the ktrace metrics
// registry (register with m.Register("net", h.CollectMetrics)).
func (h *Host) CollectMetrics(emit func(name string, value uint64)) {
	emit("received", h.stats.Received)
	emit("bad_packets", h.stats.BadPacket)
	emit("no_socket", h.stats.NoSocket)
	emit("tx_errors", h.stats.TxErrors)
	emit("zero_wnd_probes", h.stats.ZeroWndProbes)
	emit("contained", h.stats.Contained)
	emit("conns", uint64(h.demux.Len()))
	emit("free_ports", uint64(h.ports.Free()))
}

// SetTCPTuning installs tuning applied to subsequently created TCBs.
func (h *Host) SetTCPTuning(tn TCPTuning) { h.tcpTuning = tn }

// TimerCount returns the number of armed connection timers — idle
// connections hold none.
func (h *Host) TimerCount() int { return h.wheel.Len() }

// ListenTCP creates a listening socket on port.
func (h *Host) ListenTCP(port uint16) (*Socket, kbase.Errno) {
	if _, dup := h.listeners[port]; dup {
		return nil, kbase.EEXIST
	}
	s := &Socket{
		host: h, Proto: ProtoTCP, LocalPort: port,
		backlog: NewBacklog[*Socket](0),
		pending: make(map[connKey]*Socket),
	}
	s.private = newTCB(s, StateListen)
	h.listeners[port] = s
	h.ports.Acquire(port)
	return s, kbase.EOK
}

// ConnectTCP opens a connection to raddr:rport. The returned socket
// completes the handshake as the simulation steps. EADDRINUSE when
// the host's ephemeral port space is exhausted.
func (h *Host) ConnectTCP(raddr Addr, rport uint16) (*Socket, kbase.Errno) {
	port, err := h.ports.AllocEphemeral()
	if err != kbase.EOK {
		return nil, err
	}
	s := &Socket{
		host: h, Proto: ProtoTCP,
		LocalPort: port, RemoteAddr: raddr, RemotePort: rport,
	}
	tcb := newTCB(s, StateClosed)
	s.private = tcb
	h.registerConn(s)
	tcb.connect()
	return s, kbase.EOK
}

// registerConn binds the connection's 4-tuple in the demux table. The
// caller owns the port accounting (AllocEphemeral already holds a
// reference; accepted children Acquire their listener's port).
func (h *Host) registerConn(s *Socket) {
	h.demux.Insert(FourTuple{h.addr, s.LocalPort, s.RemoteAddr, s.RemotePort}, s)
}

// reapLater queues a closed connection for the next tick's reap:
// tuple unbound, port released, timer canceled. Listener and UDP
// sockets never come through here.
func (h *Host) reapLater(s *Socket) {
	if s.backlog != nil {
		return
	}
	if tcb, ok := s.private.(*TCB); ok {
		if tcb.reaped {
			return
		}
		tcb.reaped = true
	}
	h.dead = append(h.dead, s)
}

func (h *Host) reapDead() {
	for i, s := range h.dead {
		h.demux.Delete(FourTuple{h.addr, s.LocalPort, s.RemoteAddr, s.RemotePort})
		h.ports.Release(s.LocalPort)
		if tcb, ok := s.private.(*TCB); ok {
			h.wheel.Cancel(&tcb.timer)
		}
		h.dead[i] = nil
	}
	h.dead = h.dead[:0]
}

// promote moves a pending child connection to the accept backlog.
func (h *Host) promote(child *Socket) {
	l, ok := h.listeners[child.LocalPort]
	if !ok {
		return
	}
	key := connKey{child.RemoteAddr, child.RemotePort}
	if _, pending := l.pending[key]; !pending {
		return
	}
	delete(l.pending, key)
	tuple := FourTuple{h.addr, child.LocalPort, child.RemoteAddr, child.RemotePort}
	if !l.backlog.Push(tuple, child) {
		// Backlog full: refuse the connection, as an overloaded
		// accept queue does.
		tpAcceptDrop.Emit(0, uint64(l.LocalPort), l.backlog.Dropped())
		if ctcb, ok := child.private.(*TCB); ok {
			ctcb.State = StateClosed
			ctcb.ResetErr = kbase.ECONNREFUSED
			ctcb.ResetReason = "accept backlog full"
			ctcb.transmit(FlagRST, ctcb.sendNext, nil, false)
			ctcb.rearm()
		}
	}
}

// receive dispatches one inbound packet through the containment
// gate (when installed): a panic in protocol code drops the packet
// and quarantines the stack instead of crashing the kernel.
func (h *Host) receive(pkt Packet) {
	h.guardReceive(pkt)
}

func (h *Host) doReceive(pkt Packet) {
	h.stats.Received++
	src, dst, proto, payload, err := ParseIP(pkt)
	if err != kbase.EOK || dst != h.addr {
		h.stats.BadPacket++
		return
	}
	switch proto {
	case ProtoTCP:
		if h.streamProto != nil {
			h.streamProto.HandleSegment(src, payload)
			return
		}
		seg, err := parseTCP(payload)
		if err != kbase.EOK {
			h.stats.BadPacket++
			return
		}
		h.dispatchTCP(src, seg)
	case ProtoUDP:
		dg, err := parseUDP(payload)
		if err != kbase.EOK {
			h.stats.BadPacket++
			return
		}
		h.dispatchUDP(src, dg)
	default:
		h.stats.BadPacket++
	}
}

func (h *Host) dispatchTCP(src Addr, seg tcpSegment) {
	if s, ok := h.demux.Lookup(FourTuple{h.addr, seg.DstPort, src, seg.SrcPort}); ok {
		// The generic layer reaches into TCP state directly —
		// the §4.1 pathology. A stomped Private is type
		// confusion, detected only at the assertion.
		tcb, ok := s.private.(*TCB)
		if !ok {
			kbase.Oops(kbase.OopsTypeConfusion, "net",
				"socket %d private is %T, not *TCB", s.LocalPort, s.private)
			return
		}
		tcb.handle(seg)
		return
	}
	if l, ok := h.listeners[seg.DstPort]; ok && seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		// New connection attempt.
		key := connKey{src, seg.SrcPort}
		if child, dup := l.pending[key]; dup {
			// Retransmitted SYN: resend SYN|ACK via the pending child.
			ctcb := child.private.(*TCB)
			ctcb.rcvNext = seg.Seq + 1
			ctcb.transmit(FlagSYN|FlagACK, ctcb.iss, nil, false)
			ctcb.rearm()
			return
		}
		child := &Socket{
			host: h, Proto: ProtoTCP,
			LocalPort: seg.DstPort, RemoteAddr: src, RemotePort: seg.SrcPort,
		}
		ctcb := newTCB(child, StateSynRcvd)
		ctcb.rcvNext = seg.Seq + 1
		ctcb.peerWnd = uint32(seg.Wnd)
		child.private = ctcb
		h.registerConn(child)
		h.ports.Acquire(child.LocalPort)
		l.pending[key] = child
		ctcb.transmit(FlagSYN|FlagACK, ctcb.iss, nil, true)
		ctcb.sendNext = ctcb.iss + 1
		ctcb.rearm()
		return
	}
	h.stats.NoSocket++
}

func (h *Host) dispatchUDP(src Addr, dg udpDatagram) {
	s, ok := h.udpSocks[dg.DstPort]
	if !ok {
		h.stats.NoSocket++
		return
	}
	st, ok := s.private.(*udpState)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "net",
			"udp socket %d private is %T, not *udpState", s.LocalPort, s.private)
		return
	}
	st.queue = append(st.queue, dg)
	st.from = append(st.from, src)
}

// tick advances the host's timer plane: the modular protocol (when
// installed), then the wheel — touching only connections whose
// deadline expired — then the dead-list reap. An all-idle host does no
// per-connection work and allocates nothing.
func (h *Host) tick(now uint64) {
	h.guardTick(now)
}

func (h *Host) doTick(now uint64) {
	if h.streamProto != nil {
		h.streamProto.Tick(now)
	}
	h.tickNow = now
	h.wheel.Advance(now, h.fireFn)
	if len(h.dead) > 0 {
		h.reapDead()
	}
}

// --- Generic socket operations (legacy layer) ---

// Send queues data on a connected socket.
func (s *Socket) Send(data []byte) kbase.Errno {
	t := opSend.Begin(nil)
	defer t.End()
	switch s.Proto {
	case ProtoTCP:
		tcb, ok := s.private.(*TCB)
		if !ok {
			kbase.Oops(kbase.OopsTypeConfusion, "net", "Send: private is %T", s.private)
			return kbase.EUCLEAN
		}
		return tcb.tcbSend(data)
	default:
		return kbase.EPROTO
	}
}

// Recv drains received bytes. (0, EOK) on a drained, peer-closed
// stream means EOF; EAGAIN means try later.
func (s *Socket) Recv(buf []byte) (int, kbase.Errno) {
	t := opRecv.Begin(nil)
	defer t.End()
	switch s.Proto {
	case ProtoTCP:
		tcb, ok := s.private.(*TCB)
		if !ok {
			kbase.Oops(kbase.OopsTypeConfusion, "net", "Recv: private is %T", s.private)
			return 0, kbase.EUCLEAN
		}
		return tcb.tcbRecv(buf)
	default:
		return 0, kbase.EPROTO
	}
}

// Accept dequeues an established connection from a listener.
func (s *Socket) Accept() (*Socket, kbase.Errno) {
	if s.Proto != ProtoTCP || s.backlog == nil {
		return nil, kbase.EINVAL
	}
	c, ok := s.backlog.Pop()
	if !ok {
		return nil, kbase.EAGAIN
	}
	return c, kbase.EOK
}

// Close shuts the socket down.
func (s *Socket) Close() kbase.Errno {
	switch s.Proto {
	case ProtoTCP:
		if s.backlog != nil {
			delete(s.host.listeners, s.LocalPort)
			s.host.ports.Release(s.LocalPort)
			return kbase.EOK
		}
		tcb, ok := s.private.(*TCB)
		if !ok {
			kbase.Oops(kbase.OopsTypeConfusion, "net", "Close: private is %T", s.private)
			return kbase.EUCLEAN
		}
		tcb.tcbClose()
		return kbase.EOK
	case ProtoUDP:
		delete(s.host.udpSocks, s.LocalPort)
		s.host.ports.Release(s.LocalPort)
		return kbase.EOK
	}
	return kbase.EPROTO
}

// Established reports whether a TCP socket finished its handshake.
func (s *Socket) Established() bool {
	t := s.tcb()
	return t != nil && t.State == StateEstablished
}

// Closed reports whether the connection is fully shut down.
func (s *Socket) Closed() bool {
	t := s.tcb()
	return t != nil && t.State == StateClosed
}

// TCPInfo returns the socket's TCB when this is a TCP connection —
// the typed accessor out-of-package code should use instead of
// downcasting Private (keeps the kerncheck anyboundary ratchet flat).
func (s *Socket) TCPInfo() (*TCB, bool) {
	t := s.tcb()
	return t, t != nil
}

// tcb is where the socket layer's accessors read TCP state: the
// socket's TCB, or nil when this is not a TCP socket.
func (s *Socket) tcb() *TCB {
	t, _ := s.private.(*TCB)
	return t
}
