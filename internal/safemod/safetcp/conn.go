package safetcp

import (
	"fmt"
	"strconv"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safety/own"
)

// Tracepoints for the ownership-safe transport (catalog in DESIGN.md).
var (
	tpSafeSend    = ktrace.New("safetcp:send")       // a0=bytes queued, a1=local port
	tpSafeRecv    = ktrace.New("safetcp:recv")       // a0=bytes drained, a1=local port
	tpSafeTxErr   = ktrace.New("safetcp:tx_err")     // a0=errno, a1=local port
	tpSafeRetrans = ktrace.New("safetcp:retransmit") // a0=seq, a1=local port
)

// Transport tuning, matching the legacy stack so performance
// comparisons — and the differential fuzz harness — are
// apples-to-apples.
const (
	MSS             = 512
	RTOJiffies      = 16 // the legacy fixed RTO (FixedRTO tuning)
	InitialRTO      = 32 // conservative pre-sample RTO; the estimator adapts down
	MinRTO          = 4
	MaxRTO          = 256
	MaxRetries      = 12
	SendWindowSeg   = 8
	DefaultRecvWnd  = 4096
	TimeWaitJiffies = 128
	maxBackoff      = 5
	maxReasmSegs    = 32
)

// Mod-2^32 sequence comparisons (RFC 793 arithmetic).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

// State is the connection state.
type State uint8

// Connection states.
const (
	Closed State = iota
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	LastAck
	Closing
	TimeWait
)

var stateNames = [...]string{
	"Closed", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "LastAck",
	"Closing", "TimeWait",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// rttEstimator is the Jacobson estimator in scaled-integer form:
// srtt8 holds srtt<<3 and rttvar4 holds rttvar<<2, so
// RTO = srtt + 4*rttvar = srtt8>>3 + rttvar4.
type rttEstimator struct {
	srtt8   int64
	rttvar4 int64
	init    bool
}

func (e *rttEstimator) sample(m int64) {
	if m < 1 {
		m = 1
	}
	if !e.init {
		e.init = true
		e.srtt8 = m << 3
		e.rttvar4 = m << 1
		return
	}
	err := m - e.srtt8>>3
	e.srtt8 += err
	if err < 0 {
		err = -err
	}
	e.rttvar4 += err - e.rttvar4>>2
}

func (e *rttEstimator) rto() uint64 {
	if !e.init {
		// No sample yet: start high and adapt down (Linux's initial
		// RTO is a conservative 1s for the same reason). Starting
		// below the path RTT trips Karn's deadlock: every segment
		// retransmits spuriously, so none is ever cleanly sampled.
		return InitialRTO
	}
	r := e.srtt8>>3 + e.rttvar4
	if r < MinRTO {
		r = MinRTO
	}
	if r > MaxRTO {
		r = MaxRTO
	}
	return uint64(r)
}

// unacked is one in-flight segment awaiting acknowledgment.
type unacked struct {
	seq      uint32
	flags    Flags
	payload  []byte
	deadline uint64
	sentAt   uint64 // first-transmission time, for RTT sampling
	retries  int
}

func seqSpan(f Flags, payload []byte) uint32 {
	n := uint32(len(payload))
	if f.SYN {
		n++
	}
	if f.FIN {
		n++
	}
	return n
}

// reasmSeg is one out-of-order payload waiting for the hole before it
// to fill. Payloads stay plain bytes here; ownership transfer to the
// receive queue happens only when the bytes become deliverable.
type reasmSeg struct {
	seq     uint32
	payload []byte
}

// Conn is one connection. All state is concrete and private; there
// is no untyped escape hatch.
type Conn struct {
	ep         *Endpoint
	key        net.FourTuple
	localPort  uint16
	remoteAddr net.Addr
	remotePort uint16

	// timer is the connection's single wheel timer, armed at the
	// earliest pending deadline (retransmission, zero-window probe, or
	// TIME_WAIT expiry). An idle established connection holds no timer.
	timer  kbase.WheelTimer[*Conn]
	reaped bool

	state State

	// Send side.
	sendNext           uint32
	sendBuf            []byte
	flight             []unacked
	inFlight           int    // unacked payload bytes
	peerWnd            uint32 // peer's last advertised window
	probeAt            uint64 // earliest next zero-window probe
	finQueued, finSent bool

	// Receive side.
	recvWnd int // our receive window (bytes)
	rcvNext uint32
	// recvQ holds received payloads as owned buffers (sharing model
	// 1: the network layer hands ownership to the connection; Recv
	// hands it onward to the caller and frees).
	recvQ      []own.Owned[[]byte]
	recvOff    int // bytes already consumed from recvQ[0]
	recvBytes  int // total undelivered bytes across recvQ
	reasm      []reasmSeg
	reasmBytes int
	peerFIN    bool
	finPending bool
	finSeq     uint32
	// rxLabel labels recvQ's cells. It is built on first delivery, so
	// an idle connection never allocates it.
	rxLabel string

	// Retransmission.
	rtt      rttEstimator
	fixedRTO bool
	lastAck  uint32
	dupAcks  int

	// Close path.
	timeWaitAt uint64
	bornAt     uint64 // creation jiffy, for the lifetime histogram

	// Diagnostics.
	Retransmits uint64
	TxErrors    uint64
	// ResetErr is the typed reason the connection died abnormally
	// (ECONNRESET on a peer reset, ETIMEDOUT on retry exhaustion).
	ResetErr kbase.Errno
	// ResetReason is the human-readable companion to ResetErr.
	ResetReason string
}

// Established reports a completed handshake.
func (c *Conn) Established() bool { return c.state == Established }

// Closed reports a fully shut-down connection.
func (c *Conn) Closed() bool { return c.state == Closed }

// ResetErrno implements net.Stream: the ResetErr field.
func (c *Conn) ResetErrno() kbase.Errno { return c.ResetErr }

// RetransmitCount implements net.Stream: the Retransmits field.
func (c *Conn) RetransmitCount() uint64 { return c.Retransmits }

// rto returns the current retransmission timeout.
func (c *Conn) rto() uint64 {
	if c.fixedRTO {
		return RTOJiffies
	}
	return c.rtt.rto()
}

// advertiseWnd computes the window to put on the wire.
func (c *Conn) advertiseWnd() uint16 {
	w := c.recvWnd - c.recvBytes - c.reasmBytes
	if w < 0 {
		w = 0
	}
	if w > 0xFFFF {
		w = 0xFFFF
	}
	return uint16(w)
}

// send emits one segment; tracked segments enter the flight window.
// Link errors are surfaced through endpoint stats and the
// safetcp:tx_err tracepoint; the segment stays tracked so the
// retransmission timer carries it across the outage.
func (c *Conn) send(f Flags, seq uint32, payload []byte, track bool) {
	seg := Segment{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: seq, Ack: c.rcvNext, Flags: f,
		Wnd: c.advertiseWnd(), Payload: payload,
	}
	c.emit(&seg)
	if track {
		now := c.ep.host.Now()
		c.flight = append(c.flight, unacked{
			seq: seq, flags: f, payload: payload,
			deadline: now + c.rto(), sentAt: now,
		})
		c.inFlight += len(payload)
	}
}

// sendAck emits a pure ACK carrying the current window.
func (c *Conn) sendAck() { c.send(Flags{ACK: true}, c.sendNext, nil, false) }

// nextDeadline computes the connection's earliest pending deadline: 0
// means nothing is scheduled and the timer stays unarmed — the idle
// case, which is what makes a million idle connections free to tick.
func (c *Conn) nextDeadline() uint64 {
	switch c.state {
	case Closed:
		return 0
	case TimeWait:
		return c.timeWaitAt
	}
	var d uint64
	for i := range c.flight {
		if d == 0 || c.flight[i].deadline < d {
			d = c.flight[i].deadline
		}
	}
	if c.canSendData() && len(c.sendBuf) > 0 && len(c.flight) == 0 && c.peerWnd == 0 {
		p := c.probeAt
		if p == 0 {
			p = 1 // probe due immediately; the wheel clamps to the next jiffy
		}
		if d == 0 || p < d {
			d = p
		}
	}
	return d
}

// rearm re-syncs the wheel timer with the connection's state. Called
// at every event boundary (segment handled, data queued, close
// started, timer fired). A Closed connection cancels its timer and
// queues for the end-of-tick reap.
func (c *Conn) rearm() {
	if c.state == Closed {
		c.ep.wheel.Cancel(&c.timer)
		c.ep.reapLater(c)
		return
	}
	if d := c.nextDeadline(); d == 0 {
		c.ep.wheel.Cancel(&c.timer)
	} else {
		c.ep.wheel.Arm(&c.timer, d)
	}
}

// handle processes one validated inbound segment, then re-syncs the
// wheel timer.
func (c *Conn) handle(seg Segment) {
	c.handleSeg(seg)
	c.rearm()
}

func (c *Conn) handleSeg(seg Segment) {
	now := c.ep.host.Now()
	if seg.Flags.RST {
		c.state = Closed
		c.ResetErr = kbase.ECONNRESET
		c.ResetReason = "peer reset"
		return
	}
	// Window update on any segment that is not an old reordered ACK.
	if seg.Flags.ACK && !seqLT(seg.Ack, c.lastAck) {
		c.peerWnd = uint32(seg.Wnd)
	}
	switch c.state {
	case SynSent:
		if seg.Flags.SYN && seg.Flags.ACK && seg.Ack == c.sendNext {
			c.rcvNext = seg.Seq + 1
			c.ackAdvance(seg.Ack)
			c.state = Established
			c.sendAck()
			c.pump()
		}
	case SynRcvd:
		if seg.Flags.ACK && seg.Ack == c.sendNext {
			c.ackAdvance(seg.Ack)
			c.state = Established
			c.ep.promote(c)
			// Piggybacked data first, then drain anything queued via
			// Send before the handshake completed.
			c.handleData(seg)
			c.progressClose()
			c.pump()
		}
	case TimeWait:
		// Retransmitted FIN: our final ACK was lost. Re-ACK, restart
		// 2MSL.
		if seg.Flags.FIN {
			c.sendAck()
			c.timeWaitAt = now + TimeWaitJiffies
		}
	case Established, FinWait1, FinWait2, CloseWait, LastAck, Closing:
		if seg.Flags.SYN {
			// Peer missed our handshake ACK; re-send it.
			c.sendAck()
			return
		}
		if seg.Flags.ACK {
			c.ackAdvance(seg.Ack)
		}
		c.handleData(seg)
		c.progressClose()
		c.pump()
	}
}

// deliver moves deliverable payload bytes into the owned receive
// queue (ownership transfer: the connection owns the cell until Recv
// hands the bytes to the caller).
func (c *Conn) deliver(seq uint32, payload []byte) {
	if c.rxLabel == "" {
		c.rxLabel = "safetcp.rx." + strconv.Itoa(int(c.localPort))
	}
	cell := own.New(c.ep.checker, c.rxLabel, payload)
	c.recvQ = append(c.recvQ, cell)
	c.recvBytes += len(payload)
	c.rcvNext = seq + uint32(len(payload))
}

// handleData accepts payload and FIN: in-order payload delivers (and
// drains reassembly), out-of-order payload queues, and every segment
// carrying payload or FIN is re-ACKed so the sender sees duplicate
// ACKs for holes.
func (c *Conn) handleData(seg Segment) {
	now := c.ep.host.Now()
	if len(seg.Payload) > 0 {
		end := seg.Seq + uint32(len(seg.Payload))
		switch {
		case seg.Seq == c.rcvNext:
			// In order; accepted even past the advertised window (the
			// peer's zero-window probes land here).
			c.deliver(seg.Seq, seg.Payload)
			c.drainReasm()
		case seqLT(seg.Seq, c.rcvNext) && seqGT(end, c.rcvNext):
			// Partial overlap: deliver the unseen tail.
			c.deliver(c.rcvNext, seg.Payload[c.rcvNext-seg.Seq:])
			c.drainReasm()
		case seqGT(seg.Seq, c.rcvNext):
			c.enqueueReasm(seg.Seq, seg.Payload)
		}
	}
	if seg.Flags.FIN && !c.peerFIN {
		finSeq := seg.Seq + uint32(len(seg.Payload))
		if finSeq == c.rcvNext {
			c.processFIN(now)
		} else if seqGT(finSeq, c.rcvNext) {
			c.finPending = true
			c.finSeq = finSeq
		}
	}
	if len(seg.Payload) > 0 || seg.Flags.FIN {
		c.sendAck()
	}
}

// enqueueReasm inserts an out-of-order payload into the bounded
// reassembly queue, deduplicating by sequence number.
func (c *Conn) enqueueReasm(seq uint32, payload []byte) {
	for _, r := range c.reasm {
		if r.seq == seq {
			return
		}
	}
	if len(c.reasm) >= maxReasmSegs {
		return // full: drop, the retransmission will return
	}
	i := 0
	for i < len(c.reasm) && seqLT(c.reasm[i].seq, seq) {
		i++
	}
	c.reasm = append(c.reasm, reasmSeg{})
	copy(c.reasm[i+1:], c.reasm[i:])
	c.reasm[i] = reasmSeg{seq: seq, payload: payload}
	c.reasmBytes += len(payload)
}

// drainReasm delivers now-in-order reassembly segments and applies a
// pending FIN once it lines up with rcvNext.
func (c *Conn) drainReasm() {
	for changed := true; changed; {
		changed = false
		kept := c.reasm[:0]
		for _, r := range c.reasm {
			end := r.seq + uint32(len(r.payload))
			switch {
			case !seqGT(end, c.rcvNext):
				c.reasmBytes -= len(r.payload)
			case !seqGT(r.seq, c.rcvNext):
				c.reasmBytes -= len(r.payload)
				c.deliver(c.rcvNext, r.payload[c.rcvNext-r.seq:])
				changed = true
			default:
				kept = append(kept, r)
			}
		}
		c.reasm = kept
	}
	if c.finPending && !c.peerFIN && c.finSeq == c.rcvNext {
		c.processFIN(c.ep.host.Now())
	}
}

// processFIN consumes the peer's FIN at rcvNext.
func (c *Conn) processFIN(now uint64) {
	c.rcvNext++
	c.peerFIN = true
	c.finPending = false
	switch c.state {
	case Established, SynRcvd:
		c.state = CloseWait
	case FinWait1:
		// Simultaneous close: both FINs crossed, ours not yet acked.
		c.state = Closing
	case FinWait2:
		c.enterTimeWait(now)
	}
}

// enterTimeWait starts the 2MSL quarantine that absorbs a lost final
// ACK.
func (c *Conn) enterTimeWait(now uint64) {
	c.state = TimeWait
	c.timeWaitAt = now + TimeWaitJiffies
}

// ackAdvance retires acknowledged flight entries, samples RTT per
// Karn's rule, re-arms only the head timer on progress, and
// fast-retransmits after three duplicate ACKs. Old reordered ACKs are
// ignored so they cannot regress lastAck.
func (c *Conn) ackAdvance(ack uint32) {
	if seqLT(ack, c.lastAck) {
		return
	}
	now := c.ep.host.Now()
	kept := c.flight[:0]
	inFlight := 0
	progressed := false
	for _, u := range c.flight {
		if !seqGT(u.seq+seqSpan(u.flags, u.payload), ack) {
			if u.flags.FIN {
				c.finAcked(now)
			}
			if u.retries == 0 {
				rttHist.Record(now - u.sentAt)
				if !c.fixedRTO {
					c.rtt.sample(int64(now - u.sentAt))
				}
			}
			progressed = true
			continue
		}
		kept = append(kept, u)
		inFlight += len(u.payload)
	}
	c.flight = kept
	c.inFlight = inFlight
	switch {
	case progressed:
		c.dupAcks = 0
		if len(c.flight) > 0 {
			c.flight[0].deadline = now + c.rto()
		}
	case ack == c.lastAck && len(c.flight) > 0:
		c.dupAcks++
		if c.dupAcks >= 3 {
			c.dupAcks = 0
			c.retransmit(&c.flight[0], now)
		}
	}
	if seqGT(ack, c.lastAck) {
		c.lastAck = ack
	}
}

func (c *Conn) finAcked(now uint64) {
	switch c.state {
	case FinWait1:
		c.state = FinWait2
	case Closing:
		c.enterTimeWait(now)
	case LastAck:
		c.state = Closed
	}
}

func (c *Conn) progressClose() {
	if c.finQueued && !c.finSent && len(c.sendBuf) == 0 {
		c.send(Flags{FIN: true, ACK: true}, c.sendNext, nil, true)
		c.sendNext++
		c.finSent = true
	}
}

// canSendData reports whether payload may still go out: established,
// or closing with our FIN not yet on the wire.
func (c *Conn) canSendData() bool {
	switch c.state {
	case Established, CloseWait:
		return true
	case FinWait1, LastAck, Closing:
		return !c.finSent
	}
	return false
}

// pump segments the send buffer up to both the segment window and the
// peer's advertised byte window.
func (c *Conn) pump() {
	if !c.canSendData() {
		return
	}
	for len(c.sendBuf) > 0 && len(c.flight) < SendWindowSeg {
		room := int(c.peerWnd) - c.inFlight
		if room <= 0 {
			break // closed window: tick() probes it open
		}
		n := min(len(c.sendBuf), MSS, room)
		chunk := make([]byte, n)
		copy(chunk, c.sendBuf[:n])
		c.sendBuf = c.sendBuf[n:]
		c.send(Flags{ACK: true}, c.sendNext, chunk, true)
		c.sendNext += uint32(n)
	}
	c.progressClose()
}

// retransmit resends one flight entry with capped backoff.
func (c *Conn) retransmit(u *unacked, now uint64) {
	if u.retries < MaxRetries {
		u.retries++
	}
	shift := uint(u.retries)
	if shift > maxBackoff {
		shift = maxBackoff
	}
	backoff := c.rto() << shift
	if backoff > MaxRTO {
		backoff = MaxRTO
	}
	u.deadline = now + backoff
	c.Retransmits++
	tpSafeRetrans.Emit(0, uint64(u.seq), uint64(c.localPort))
	seg := Segment{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: u.seq, Ack: c.rcvNext, Flags: u.flags,
		Wnd: c.advertiseWnd(), Payload: u.payload,
	}
	c.emit(&seg)
}

// emit marshals seg straight into a new packet's transport window and
// sends it: one allocation per segment.
func (c *Conn) emit(seg *Segment) {
	pkt := net.NewPacket(headerLen + len(seg.Payload))
	seg.marshal(pkt.Transport())
	if err := c.ep.host.SendIP(c.remoteAddr, net.ProtoTCP, pkt); err != kbase.EOK {
		c.TxErrors++
		c.ep.stats.TxErrors++
		tpSafeTxErr.Emit(0, uint64(err), uint64(c.localPort))
	}
}

// onTimer drives the connection's deadlines when its wheel timer
// fires: TIME_WAIT expiry, retransmission (retry exhaustion resets
// the connection with a typed ETIMEDOUT), zero-window probes, and the
// send pump. It ends by re-arming at the next pending deadline.
func (c *Conn) onTimer(now uint64) {
	if c.state == TimeWait {
		if now >= c.timeWaitAt {
			c.state = Closed
		}
		c.rearm()
		return
	}
	if c.state == Closed {
		c.rearm()
		return
	}
	for i := range c.flight {
		u := &c.flight[i]
		if u.deadline > now {
			continue
		}
		if u.retries >= MaxRetries {
			c.state = Closed
			c.ResetErr = kbase.ETIMEDOUT
			c.ResetReason = "retransmission limit"
			c.send(Flags{RST: true}, c.sendNext, nil, false)
			c.rearm()
			return
		}
		c.retransmit(u, now)
	}
	// Zero-window probe: one tracked byte keeps the window-update
	// channel alive; the receiver soft-accepts it.
	if c.canSendData() && len(c.sendBuf) > 0 && len(c.flight) == 0 &&
		c.peerWnd == 0 && now >= c.probeAt {
		chunk := []byte{c.sendBuf[0]}
		c.sendBuf = c.sendBuf[1:]
		c.ep.stats.ZeroWndProbes++
		c.send(Flags{ACK: true}, c.sendNext, chunk, true)
		c.sendNext++
		c.probeAt = now + c.rto()
	}
	c.pump()
	c.rearm()
}

// Send queues payload bytes for transmission.
func (c *Conn) Send(data []byte) kbase.Errno {
	switch c.state {
	case Established, CloseWait, SynSent, SynRcvd:
		if c.finQueued {
			return kbase.EPIPE
		}
		c.sendBuf = append(c.sendBuf, data...)
		tpSafeSend.Emit(0, uint64(len(data)), uint64(c.localPort))
		c.pump()
		c.rearm()
		return kbase.EOK
	default:
		if c.ResetErr != kbase.EOK {
			return c.ResetErr
		}
		return kbase.ENOTCONN
	}
}

// Recv moves received bytes into buf. Ownership of fully-consumed
// buffers ends here (they are freed); partially-consumed buffers
// remain owned by the connection. Buffered data always drains before
// a typed reset or EOF surfaces: (0, EOK) with a peer FIN is EOF,
// (0, ECONNRESET/ETIMEDOUT) is an abnormal close, EAGAIN means no
// data yet.
func (c *Conn) Recv(buf []byte) (int, kbase.Errno) {
	wndBefore := c.advertiseWnd()
	total := 0
	for total < len(buf) && len(c.recvQ) > 0 {
		cell := c.recvQ[0]
		consumed := false
		cell.Read(func(data []byte) {
			n := copy(buf[total:], data[c.recvOff:])
			total += n
			c.recvOff += n
			consumed = c.recvOff >= len(data)
		})
		if consumed {
			cell.Free()
			c.recvQ = c.recvQ[1:]
			c.recvOff = 0
		} else {
			break
		}
	}
	if total > 0 {
		c.recvBytes -= total
		tpSafeRecv.Emit(0, uint64(total), uint64(c.localPort))
		// Window update: tell a blocked peer the window reopened
		// instead of waiting for its probe.
		if wndBefore < MSS && c.advertiseWnd() >= MSS &&
			c.state != Closed && c.state != TimeWait {
			c.sendAck()
		}
		return total, kbase.EOK
	}
	if c.ResetErr != kbase.EOK {
		return 0, c.ResetErr
	}
	if c.peerFIN || c.state == Closed {
		return 0, kbase.EOK
	}
	return 0, kbase.EAGAIN
}

// Buffered returns bytes waiting to be Recv'd.
//
//kerncheck:ignore deadexport receive-buffer probe for pkg/safelinux's poisoned-enumeration test
func (c *Conn) Buffered() int { return c.recvBytes }

// Close starts an orderly shutdown.
func (c *Conn) Close() kbase.Errno {
	switch c.state {
	case Established:
		c.state = FinWait1
		c.finQueued = true
		c.progressClose()
	case CloseWait:
		c.state = LastAck
		c.finQueued = true
		c.progressClose()
	case SynSent, SynRcvd:
		c.state = Closed
		c.drainRecvQ()
	}
	c.rearm()
	return kbase.EOK
}

// drainRecvQ frees undelivered owned buffers so nothing leaks when a
// connection is torn down before its data was consumed.
func (c *Conn) drainRecvQ() {
	for _, cell := range c.recvQ {
		cell.Free()
	}
	c.recvQ = nil
	c.recvOff = 0
	c.recvBytes = 0
}
