package safetcp

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safety/module"
	"safelinux/internal/safety/own"
)

// Data-plane tracepoints (catalog in DESIGN.md).
var (
	// tpSafeCascade fires per non-empty timer-wheel cascade
	// (a0=level, a1=timers moved).
	tpSafeCascade = ktrace.New("safetcp:wheel_cascade")
	// tpSafeAcceptDrop fires when a full accept backlog refuses a child
	// (a0=port, a1=total drops).
	tpSafeAcceptDrop = ktrace.New("safetcp:accept_drop")
)

// Tuning adjusts endpoint-wide connection behavior; applied to
// connections created after SetTuning.
type Tuning struct {
	FixedRTO   bool // disable the RTT estimator; fixed RTOJiffies timeout
	RecvWindow int  // receive window in bytes (0 = DefaultRecvWnd)
}

// Endpoint is one host's safetcp instance, attached through the
// net.StreamProto modular interface. It owns every connection on the
// host; the generic socket layer never sees protocol state.
//
// The data plane mirrors the legacy stack's C1M layout, built on the
// same shared primitives: a sharded 4-tuple demux table for O(1)
// segment dispatch, a hierarchical timer wheel so only connections
// with a due deadline are touched on a tick (an idle connection holds
// no armed timer at all), a bitmap port allocator with a typed
// EADDRINUSE on exhaustion, and a sharded bounded accept backlog.
type Endpoint struct {
	host    *net.Host
	checker *own.Checker

	demux     *net.DemuxTable[*Conn]
	wheel     *kbase.TimerWheel[*Conn]
	ports     *net.PortAlloc
	dead      []*Conn // reaped this tick, drained after the wheel advance
	listeners map[uint16]*Listener
	tuning    Tuning

	// tickNow/fireFn let the wheel advance fire without a per-tick
	// closure allocation.
	tickNow uint64
	fireFn  func(*Conn)

	stats endpointStats
}

// endpointStats counts endpoint activity.
type endpointStats struct {
	Segments   uint64
	BadSegment uint64
	NoConn     uint64
	TxErrors   uint64 // transmits the link refused (no route, partition)
	// ZeroWndProbes counts one-byte probes sent into a closed peer
	// window.
	ZeroWndProbes uint64
}

// Listener accepts inbound connections on one port.
type Listener struct {
	ep      *Endpoint
	port    uint16
	pending map[net.FourTuple]*Conn
	backlog *net.Backlog[*Conn]
}

// Attach creates an endpoint for host and installs it as the host's
// stream protocol.
func Attach(host *net.Host, checker *own.Checker) *Endpoint {
	if checker == nil {
		checker = own.NewChecker(own.PolicyRecord)
	}
	ep := &Endpoint{
		host:      host,
		checker:   checker,
		demux:     net.NewDemuxTable[*Conn](),
		wheel:     kbase.NewTimerWheel[*Conn](host.Now()),
		ports:     net.NewPortAlloc(),
		listeners: make(map[uint16]*Listener),
	}
	ep.wheel.OnCascade = func(level, moved int) {
		tpSafeCascade.Emit(0, uint64(level), uint64(moved))
		cascadeHist.Record(uint64(moved))
	}
	ep.fireFn = func(c *Conn) { c.onTimer(ep.tickNow) }
	host.InstallStreamProto(ep)
	return ep
}

// TimerCount returns the number of armed connection timers.
func (ep *Endpoint) TimerCount() int { return ep.wheel.Len() }

// CollectMetrics enumerates the endpoint counters for the ktrace
// metrics registry (register with m.Register("safetcp", ...)).
func (ep *Endpoint) CollectMetrics(emit func(name string, value uint64)) {
	emit("segments", ep.stats.Segments)
	emit("bad_segments", ep.stats.BadSegment)
	emit("no_conn", ep.stats.NoConn)
	emit("tx_errors", ep.stats.TxErrors)
	emit("zero_wnd_probes", ep.stats.ZeroWndProbes)
	emit("conns", uint64(ep.demux.Len()))
	emit("listeners", uint64(len(ep.listeners)))
	emit("armed_timers", uint64(ep.wheel.Len()))
	emit("free_ports", uint64(ep.ports.Free()))
	var drops uint64
	for _, l := range ep.listeners {
		drops += l.backlog.Dropped()
	}
	emit("accept_drops", drops)
}

// Checker returns the ownership checker observing this endpoint.
func (ep *Endpoint) Checker() *own.Checker { return ep.checker }

// SetTuning installs tuning applied to subsequently created
// connections.
func (ep *Endpoint) SetTuning(tn Tuning) { ep.tuning = tn }

// key builds the demux 4-tuple for a local port / remote pair.
func (ep *Endpoint) key(lport uint16, raddr net.Addr, rport uint16) net.FourTuple {
	return net.FourTuple{LAddr: ep.host.Addr(), LPort: lport, RAddr: raddr, RPort: rport}
}

// newConn builds a connection honoring the endpoint tuning.
func (ep *Endpoint) newConn(lport uint16, raddr net.Addr, rport uint16, st State) *Conn {
	c := &Conn{
		ep: ep, localPort: lport, remoteAddr: raddr, remotePort: rport,
		state: st, recvWnd: DefaultRecvWnd, fixedRTO: ep.tuning.FixedRTO,
		bornAt: ep.host.Now(),
	}
	c.key = ep.key(lport, raddr, rport)
	c.timer.Owner = c
	if ep.tuning.RecvWindow > 0 {
		c.recvWnd = ep.tuning.RecvWindow
	}
	return c
}

// ProtoName implements net.StreamProto.
func (ep *Endpoint) ProtoName() string { return "safetcp" }

// HandleSegment implements net.StreamProto: parse (validated, typed),
// then dispatch through the sharded demux table — one hashed lookup,
// never a walk.
func (ep *Endpoint) HandleSegment(src net.Addr, payload []byte) {
	ep.stats.Segments++
	res := ParseSegment(payload)
	seg, err := res.Get()
	if err != kbase.EOK {
		ep.stats.BadSegment++
		return
	}
	key := ep.key(seg.DstPort, src, seg.SrcPort)
	if c, ok := ep.demux.Lookup(key); ok {
		c.handle(seg)
		return
	}
	if l, ok := ep.listeners[seg.DstPort]; ok && seg.Flags.SYN && !seg.Flags.ACK {
		if child, dup := l.pending[key]; dup {
			// Retransmitted SYN: repeat the SYN|ACK.
			child.rcvNext = seg.Seq + 1
			child.send(Flags{SYN: true, ACK: true}, child.sendNext-1, nil, false)
			child.rearm()
			return
		}
		child := ep.newConn(seg.DstPort, src, seg.SrcPort, SynRcvd)
		child.rcvNext = seg.Seq + 1
		child.peerWnd = uint32(seg.Wnd)
		ep.demux.Insert(key, child)
		ep.ports.Acquire(seg.DstPort) // children share the listener's port
		l.pending[key] = child
		child.send(Flags{SYN: true, ACK: true}, 0, nil, true)
		child.sendNext = 1
		child.rearm()
		return
	}
	ep.stats.NoConn++
}

// Tick implements net.StreamProto. The wheel advances one jiffy and
// fires only connections whose deadline is due; everything idle is
// untouched. Connections that died since the last tick are then
// reaped — removed from the demux table and their listener's pending
// map — so ports recycle and the table stays bounded.
func (ep *Endpoint) Tick(now uint64) {
	ep.tickNow = now
	ep.wheel.Advance(now, ep.fireFn)
	if len(ep.dead) > 0 {
		ep.reapDead(now)
	}
}

// reapLater queues a dead connection for reaping at the end of the
// current tick.
func (ep *Endpoint) reapLater(c *Conn) {
	if c.reaped {
		return
	}
	c.reaped = true
	ep.dead = append(ep.dead, c)
}

func (ep *Endpoint) reapDead(now uint64) {
	for i, c := range ep.dead {
		lifeHist.Record(now - c.bornAt)
		ep.demux.Delete(c.key)
		ep.ports.Release(c.key.LPort)
		ep.wheel.Cancel(&c.timer)
		if l, ok := ep.listeners[c.key.LPort]; ok {
			delete(l.pending, c.key)
		}
		ep.dead[i] = nil
	}
	ep.dead = ep.dead[:0]
}

// promote moves an established child from its listener's pending map
// to the accept backlog. A full backlog
// resets the child — the bound is the SYN-flood drop point.
func (ep *Endpoint) promote(c *Conn) {
	l, ok := ep.listeners[c.localPort]
	if !ok {
		return
	}
	if _, pending := l.pending[c.key]; !pending {
		return
	}
	delete(l.pending, c.key)
	if !l.backlog.Push(c.key, c) {
		tpSafeAcceptDrop.Emit(0, uint64(l.port), l.backlog.Dropped())
		c.state = Closed
		c.ResetErr = kbase.ECONNREFUSED
		c.ResetReason = "accept backlog full"
		c.send(Flags{RST: true}, c.sendNext, nil, false)
		c.rearm()
	}
}

// Listen opens a listener on port.
func (ep *Endpoint) Listen(port uint16) (*Listener, kbase.Errno) {
	if _, dup := ep.listeners[port]; dup {
		return nil, kbase.EEXIST
	}
	l := &Listener{
		ep: ep, port: port,
		pending: make(map[net.FourTuple]*Conn),
		backlog: net.NewBacklog[*Conn](0),
	}
	ep.listeners[port] = l
	ep.ports.Acquire(port)
	return l, kbase.EOK
}

// Connect opens a connection to raddr:rport; the handshake completes
// as the simulation steps. When the ephemeral port space is exhausted
// the typed EADDRINUSE surfaces immediately instead of the old
// unbounded scan.
func (ep *Endpoint) Connect(raddr net.Addr, rport uint16) (*Conn, kbase.Errno) {
	port, err := ep.ports.AllocEphemeral()
	if err != kbase.EOK {
		return nil, err
	}
	c := ep.newConn(port, raddr, rport, SynSent)
	ep.demux.Insert(c.key, c)
	c.send(Flags{SYN: true}, 0, nil, true)
	c.sendNext = 1
	c.rearm()
	return c, kbase.EOK
}

// Accept dequeues one established connection, or EAGAIN.
func (l *Listener) Accept() (*Conn, kbase.Errno) {
	c, ok := l.backlog.Pop()
	if !ok {
		return nil, kbase.EAGAIN
	}
	return c, kbase.EOK
}

// ListenStream implements net.StreamStack with Listen.
func (ep *Endpoint) ListenStream(port uint16) (net.StreamListener, kbase.Errno) {
	l, err := ep.Listen(port)
	if err != kbase.EOK {
		return nil, err
	}
	return l, kbase.EOK
}

// DialStream implements net.StreamStack with Connect.
func (ep *Endpoint) DialStream(raddr net.Addr, rport uint16) (net.Stream, kbase.Errno) {
	c, err := ep.Connect(raddr, rport)
	if err != kbase.EOK {
		return nil, err
	}
	return c, kbase.EOK
}

// AcceptStream implements net.StreamListener with Accept.
func (l *Listener) AcceptStream() (net.Stream, kbase.Errno) {
	c, err := l.Accept()
	if err != kbase.EOK {
		return nil, err
	}
	return c, kbase.EOK
}

// Close removes the listener.
func (l *Listener) Close() kbase.Errno {
	delete(l.ep.listeners, l.port)
	l.ep.ports.Release(l.port)
	return kbase.EOK
}

// --- module framework registration ---

// Module describes safetcp to the module registry.
type Module struct{}

// IfaceName is the registry interface safetcp implements.
const IfaceName = "net.stream"

// ModuleName implements module.Module.
func (Module) ModuleName() string { return "safetcp" }

// Implements implements module.Module.
func (Module) Implements() module.Interface {
	return module.Interface{
		Name: IfaceName, Version: 1,
		Doc:     "stream transport behind the StreamProto modular interface",
		Methods: []string{"Listen", "Connect", "HandleSegment", "Tick"},
	}
}

// Level implements module.Module.
func (Module) Level() module.SafetyLevel { return module.LevelOwnershipSafe }

// LegacyModule describes the legacy in-tree TCP for registry
// comparisons.
type LegacyModule struct{}

// ModuleName implements module.Module.
func (LegacyModule) ModuleName() string { return "legacy-tcp" }

// Implements implements module.Module.
func (LegacyModule) Implements() module.Interface {
	return module.Interface{
		Name: IfaceName, Version: 1,
		Doc:     "stream transport with TCB state reachable from generic socket code",
		Methods: []string{"ListenTCP", "ConnectTCP"},
	}
}

// Level implements module.Module.
func (LegacyModule) Level() module.SafetyLevel { return module.LevelLegacy }
