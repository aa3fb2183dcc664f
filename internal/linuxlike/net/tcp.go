package net

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// Tracepoints for the legacy TCP-lite path (catalog in DESIGN.md).
var (
	tpTCPSend    = ktrace.New("net:tcp_send")   // a0=bytes queued, a1=local port
	tpTCPRecv    = ktrace.New("net:tcp_recv")   // a0=bytes drained, a1=local port
	tpTCPTxErr   = ktrace.New("net:tx_err")     // a0=errno, a1=local port
	tpTCPRetrans = ktrace.New("net:retransmit") // a0=seq, a1=local port
)

// Legacy TCP-lite. The transmission control block (TCB) is attached
// to the generic Socket through the untyped Private field, and —
// reproducing the paper's §4.1 observation — generic socket code
// reaches into it directly.

// TCP tuning constants.
const (
	MSS             = 512  // max segment payload
	RTOJiffies      = 16   // the legacy fixed RTO (FixedRTO tuning)
	InitialRTO      = 32   // conservative pre-sample RTO; the estimator adapts down
	MinRTO          = 4    // adaptive RTO floor
	MaxRTO          = 256  // adaptive RTO / backoff ceiling
	MaxRetries      = 12   // retransmissions before reset
	SendWindowSeg   = 8    // max unacked segments
	DefaultRecvWnd  = 4096 // default advertised receive window (bytes)
	TimeWaitJiffies = 128  // 2MSL in simulator jiffies
	maxReasmSegs    = 32   // out-of-order reassembly queue bound
)

// Mod-2^32 sequence comparisons, as RFC 793 arithmetic requires: a
// reordered ACK from before a wrap must still compare "older".
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

// TCPState is a TCB connection state.
type TCPState uint8

// TCP connection states.
const (
	StateClosed TCPState = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateClosing
	StateTimeWait
)

var tcpStateNames = map[TCPState]string{
	StateClosed: "Closed", StateListen: "Listen", StateSynSent: "SynSent",
	StateSynRcvd: "SynRcvd", StateEstablished: "Established",
	StateFinWait1: "FinWait1", StateFinWait2: "FinWait2",
	StateCloseWait: "CloseWait", StateLastAck: "LastAck",
	StateClosing: "Closing", StateTimeWait: "TimeWait",
}

func (s TCPState) String() string { return tcpStateNames[s] }

// rttEstimator is the Jacobson/Karvels estimator in the kernel's
// scaled-integer form: srtt8 holds srtt<<3 and rttvar4 holds
// rttvar<<2, so RTO = srtt + 4*rttvar = srtt8>>3 + rttvar4.
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
		// No sample yet: start high and adapt down, as Linux's 1s
		// initial RTO does. Starting below the path RTT would trip
		// Karn's deadlock: every segment retransmits spuriously, so
		// no segment is ever cleanly sampled.
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

// unackedSeg is one transmitted-but-unacknowledged segment.
type unackedSeg struct {
	seq      uint32
	flags    byte
	payload  []byte
	deadline uint64
	sentAt   uint64 // first-transmission time, for RTT sampling
	retries  int
}

// TCB is the per-connection transmission control block.
type TCB struct {
	sock  *Socket // back pointer to the generic socket
	State TCPState

	// Send side.
	iss       uint32
	sendNext  uint32
	sendBuf   []byte // accepted but not yet segmented
	unacked   []unackedSeg
	inFlight  int    // unacked payload bytes
	peerWnd   uint32 // peer's last advertised receive window
	probeAt   uint64 // earliest time for the next zero-window probe
	finQueued bool
	finSent   bool

	// Receive side.
	recvWnd    int // our receive window (bytes)
	rcvNext    uint32
	recvBuf    []byte
	reasm      []tcpSegment // out-of-order segments awaiting rcvNext
	reasmBytes int
	peerFIN    bool
	finPending bool   // FIN seen beyond rcvNext, waiting on reassembly
	finSeq     uint32 // sequence of the pending FIN

	// Retransmission.
	rtt      rttEstimator
	fixedRTO bool // tuning: disable the estimator (pre-hardening behavior)
	lastAck  uint32
	dupAcks  int

	// Close path.
	timeWaitAt uint64

	// Timer plane: one intrusive wheel timer per connection, armed at
	// the earliest of the retransmission deadlines, the zero-window
	// probe time, and TIME_WAIT expiry. An idle established connection
	// has no deadline and sits in no wheel slot, which is what makes a
	// million idle connections free per tick.
	timer  kbase.WheelTimer[*TCB]
	reaped bool // already on the host's dead list

	// Diagnostics.
	Retransmits uint64
	TxErrors    uint64
	ResetErr    kbase.Errno // typed reason the connection died, if it did
	ResetReason string
}

// newTCB creates a TCB in the given state, honoring host tuning.
func newTCB(s *Socket, st TCPState) *TCB {
	t := &TCB{sock: s, State: st, recvWnd: DefaultRecvWnd}
	t.timer.Owner = t
	if s.host != nil {
		t.fixedRTO = s.host.tcpTuning.FixedRTO
		if s.host.tcpTuning.RecvWindow > 0 {
			t.recvWnd = s.host.tcpTuning.RecvWindow
		}
	}
	return t
}

// nextDeadline computes the earliest jiffy at which this connection
// needs its timer to fire (0 = no deadline; the timer stays unarmed).
func (t *TCB) nextDeadline() uint64 {
	switch t.State {
	case StateClosed, StateListen:
		return 0
	case StateTimeWait:
		return t.timeWaitAt
	}
	var d uint64
	for i := range t.unacked {
		if d == 0 || t.unacked[i].deadline < d {
			d = t.unacked[i].deadline
		}
	}
	if t.canSendData() && len(t.sendBuf) > 0 && len(t.unacked) == 0 && t.peerWnd == 0 {
		// Zero-window probe pending: probeAt may be in the past (the
		// wheel clamps to the next jiffy, matching the old per-jiffy
		// "now >= probeAt" check).
		p := t.probeAt
		if p == 0 {
			p = 1
		}
		if d == 0 || p < d {
			d = p
		}
	}
	return d
}

// rearm synchronizes the wheel with the connection's current earliest
// deadline. Called at the end of every event that can move a deadline
// (inbound segment, send, close, timer fire); a closed connection is
// handed to the host's dead list instead.
func (t *TCB) rearm() {
	h := t.sock.host
	if h == nil {
		return
	}
	if t.State == StateClosed {
		h.wheel.Cancel(&t.timer)
		h.reapLater(t.sock)
		return
	}
	if d := t.nextDeadline(); d == 0 {
		h.wheel.Cancel(&t.timer)
	} else {
		h.wheel.Arm(&t.timer, d)
	}
}

// rto returns the current retransmission timeout.
func (t *TCB) rto() uint64 {
	if t.fixedRTO {
		return RTOJiffies
	}
	return t.rtt.rto()
}

// advertiseWnd computes the receive window to put on the wire: what
// remains of recvWnd after buffered in-order and reassembly bytes.
func (t *TCB) advertiseWnd() uint16 {
	w := t.recvWnd - len(t.recvBuf) - t.reasmBytes
	if w < 0 {
		w = 0
	}
	if w > 0xFFFF {
		w = 0xFFFF
	}
	return uint16(w)
}

// transmit sends a segment now and, if it consumes sequence space,
// tracks it for retransmission. Link errors (no route, partition) are
// surfaced through stats and the net:tx_err tracepoint instead of
// being silently dropped; the segment stays tracked, so the
// retransmission timer retries it and eventually resets the
// connection if the outage persists.
func (t *TCB) transmit(flags byte, seq uint32, payload []byte, track bool) {
	seg := tcpSegment{
		SrcPort: t.sock.LocalPort,
		DstPort: t.sock.RemotePort,
		Seq:     seq,
		Ack:     t.rcvNext,
		Flags:   flags,
		Wnd:     t.advertiseWnd(),
		Payload: payload,
	}
	t.emit(&seg)
	if track {
		now := t.sock.host.sim.clock.Now()
		t.unacked = append(t.unacked, unackedSeg{
			seq: seq, flags: flags, payload: payload,
			deadline: now + t.rto(), sentAt: now,
		})
		t.inFlight += len(payload)
	}
}

// sendAck emits a pure ACK for rcvNext with the current window.
func (t *TCB) sendAck() { t.transmit(FlagACK, t.sendNext, nil, false) }

// connect starts the three-way handshake.
func (t *TCB) connect() {
	t.State = StateSynSent
	t.transmit(FlagSYN, t.iss, nil, true)
	t.sendNext = t.iss + 1
	t.rearm()
}

// seqLen is the sequence space a segment consumes.
func seqLen(flags byte, payload []byte) uint32 {
	n := uint32(len(payload))
	if flags&FlagSYN != 0 {
		n++
	}
	if flags&FlagFIN != 0 {
		n++
	}
	return n
}

// handle processes one inbound segment, then re-syncs the wheel timer
// with whatever the segment changed.
func (t *TCB) handle(seg tcpSegment) {
	t.handleSeg(seg)
	t.rearm()
}

func (t *TCB) handleSeg(seg tcpSegment) {
	now := t.sock.host.sim.clock.Now()
	if seg.Flags&FlagRST != 0 {
		t.State = StateClosed
		t.ResetErr = kbase.ECONNRESET
		t.ResetReason = "peer reset"
		return
	}
	// Window update: believe the advertisement on any segment that is
	// not an old reordered ACK.
	if seg.Flags&FlagACK != 0 && !seqLT(seg.Ack, t.lastAck) {
		t.peerWnd = uint32(seg.Wnd)
	}
	switch t.State {
	case StateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && seg.Ack == t.sendNext {
			t.rcvNext = seg.Seq + 1
			t.ackAdvance(seg.Ack)
			t.State = StateEstablished
			t.sendAck()
			t.pump()
		}
	case StateSynRcvd:
		if seg.Flags&FlagACK != 0 && seg.Ack == t.sendNext {
			t.ackAdvance(seg.Ack)
			t.State = StateEstablished
			t.sock.host.promote(t.sock)
			// Process any piggybacked data, then drain anything queued
			// via tcbSend before establishment — without the pump the
			// pre-accept bytes sat unsent until an unrelated event.
			t.handleData(seg)
			t.progressClose()
			t.pump()
		}
	case StateTimeWait:
		// The peer retransmitted its FIN: our final ACK was lost.
		// Re-ACK and restart 2MSL.
		if seg.Flags&FlagFIN != 0 {
			t.sendAck()
			t.timeWaitAt = now + TimeWaitJiffies
		}
	case StateEstablished, StateFinWait1, StateFinWait2, StateCloseWait,
		StateLastAck, StateClosing:
		if seg.Flags&FlagSYN != 0 {
			// Duplicate or retransmitted SYN in a synchronized
			// state: the peer missed our ACK; re-send it.
			t.sendAck()
			return
		}
		if seg.Flags&FlagACK != 0 {
			t.ackAdvance(seg.Ack)
		}
		t.handleData(seg)
		t.progressClose()
		t.pump()
	}
}

// handleData accepts payload and FIN. In-order payload is delivered
// (and drains the reassembly queue); out-of-order payload is queued
// for reassembly; duplicates are dropped. Every segment that carried
// payload or FIN is acknowledged — in-order advancing the ACK,
// anything else re-ACKing rcvNext so the sender sees duplicate ACKs
// and can fast-retransmit the hole.
func (t *TCB) handleData(seg tcpSegment) {
	now := t.sock.host.sim.clock.Now()
	if len(seg.Payload) > 0 {
		end := seg.Seq + uint32(len(seg.Payload))
		switch {
		case seg.Seq == t.rcvNext:
			// In order. Accepted even when it overruns the advertised
			// window (the sender's zero-window probes land here);
			// flow control is enforced by honest advertisements, not
			// by discarding delivered bytes.
			t.recvBuf = append(t.recvBuf, seg.Payload...)
			t.rcvNext = end
			t.drainReasm()
		case seqLT(seg.Seq, t.rcvNext) && seqGT(end, t.rcvNext):
			// Partial overlap: accept the unseen tail.
			t.recvBuf = append(t.recvBuf, seg.Payload[t.rcvNext-seg.Seq:]...)
			t.rcvNext = end
			t.drainReasm()
		case seqGT(seg.Seq, t.rcvNext):
			t.enqueueReasm(seg)
		}
		// Entirely old data: fall through to the re-ACK.
	}
	if seg.Flags&FlagFIN != 0 && !t.peerFIN {
		finSeq := seg.Seq + uint32(len(seg.Payload))
		if finSeq == t.rcvNext {
			t.processFIN(now)
		} else if seqGT(finSeq, t.rcvNext) {
			// FIN beyond a hole: remember it until reassembly fills in.
			t.finPending = true
			t.finSeq = finSeq
		}
	}
	if len(seg.Payload) > 0 || seg.Flags&FlagFIN != 0 {
		t.sendAck()
	}
}

// enqueueReasm inserts an out-of-order segment into the bounded
// reassembly queue, deduplicating by sequence number.
func (t *TCB) enqueueReasm(seg tcpSegment) {
	for _, r := range t.reasm {
		if r.Seq == seg.Seq {
			return
		}
	}
	if len(t.reasm) >= maxReasmSegs {
		return // queue full: drop, the retransmission will return
	}
	i := 0
	for i < len(t.reasm) && seqLT(t.reasm[i].Seq, seg.Seq) {
		i++
	}
	t.reasm = append(t.reasm, tcpSegment{})
	copy(t.reasm[i+1:], t.reasm[i:])
	t.reasm[i] = seg
	t.reasmBytes += len(seg.Payload)
}

// drainReasm moves now-in-order segments from the reassembly queue to
// the receive buffer and applies a pending FIN once it lines up.
func (t *TCB) drainReasm() {
	for changed := true; changed; {
		changed = false
		kept := t.reasm[:0]
		for _, r := range t.reasm {
			end := r.Seq + uint32(len(r.Payload))
			switch {
			case !seqGT(end, t.rcvNext):
				// Entirely old: drop.
				t.reasmBytes -= len(r.Payload)
			case !seqGT(r.Seq, t.rcvNext):
				// Overlaps rcvNext: consume the unseen part.
				t.recvBuf = append(t.recvBuf, r.Payload[t.rcvNext-r.Seq:]...)
				t.rcvNext = end
				t.reasmBytes -= len(r.Payload)
				changed = true
			default:
				kept = append(kept, r)
			}
		}
		t.reasm = kept
	}
	if t.finPending && !t.peerFIN && t.finSeq == t.rcvNext {
		t.processFIN(t.sock.host.sim.clock.Now())
	}
}

// processFIN consumes the peer's FIN at rcvNext and moves the close
// state machine.
func (t *TCB) processFIN(now uint64) {
	t.rcvNext++
	t.peerFIN = true
	t.finPending = false
	switch t.State {
	case StateEstablished, StateSynRcvd:
		t.State = StateCloseWait
	case StateFinWait1:
		// Simultaneous close: both FINs crossed, ours not yet acked.
		t.State = StateClosing
	case StateFinWait2:
		t.enterTimeWait(now)
	}
}

// enterTimeWait starts the 2MSL quarantine that absorbs a lost final
// ACK: the peer's retransmitted FIN finds us still here to re-ACK.
func (t *TCB) enterTimeWait(now uint64) {
	t.State = StateTimeWait
	t.timeWaitAt = now + TimeWaitJiffies
}

// ackAdvance drops acknowledged segments, samples RTT per Karn's rule
// (never from a retransmitted segment), re-arms only the head
// segment's timer on progress, and fast-retransmits after three
// duplicate ACKs. Old reordered ACKs (mod-2^32 behind lastAck) are
// ignored so they cannot regress lastAck and corrupt the
// duplicate-ACK count.
func (t *TCB) ackAdvance(ack uint32) {
	if seqLT(ack, t.lastAck) {
		return // reordered old ACK: ignore entirely
	}
	now := t.sock.host.sim.clock.Now()
	kept := t.unacked[:0]
	inFlight := 0
	progressed := false
	for _, u := range t.unacked {
		if !seqGT(u.seq+seqLen(u.flags, u.payload), ack) {
			if u.flags&FlagFIN != 0 {
				t.finAcked(now)
			}
			if u.retries == 0 && !t.fixedRTO {
				t.rtt.sample(int64(now - u.sentAt))
			}
			progressed = true
			continue
		}
		kept = append(kept, u)
		inFlight += len(u.payload)
	}
	t.unacked = kept
	t.inFlight = inFlight
	switch {
	case progressed:
		t.dupAcks = 0
		// Re-arm the clock on the new head only — restarting every
		// outstanding timer on each ACK (the old behavior) meant a
		// steadily-acking peer could keep a lost tail segment's timer
		// from ever firing.
		if len(t.unacked) > 0 {
			t.unacked[0].deadline = now + t.rto()
		}
	case ack == t.lastAck && len(t.unacked) > 0:
		t.dupAcks++
		if t.dupAcks >= 3 {
			t.dupAcks = 0
			t.retransmitSeg(&t.unacked[0], now)
		}
	}
	if seqGT(ack, t.lastAck) {
		t.lastAck = ack
	}
}

// retransmitSeg resends one tracked segment and re-arms its timer
// with capped exponential backoff.
func (t *TCB) retransmitSeg(u *unackedSeg, now uint64) {
	if u.retries < MaxRetries {
		u.retries++
	}
	shift := uint(u.retries)
	if shift > 5 {
		shift = 5
	}
	backoff := t.rto() << shift
	if backoff > MaxRTO {
		backoff = MaxRTO
	}
	u.deadline = now + backoff
	t.Retransmits++
	tpTCPRetrans.Emit(0, uint64(u.seq), uint64(t.sock.LocalPort))
	seg := tcpSegment{
		SrcPort: t.sock.LocalPort, DstPort: t.sock.RemotePort,
		Seq: u.seq, Ack: t.rcvNext, Flags: u.flags,
		Wnd: t.advertiseWnd(), Payload: u.payload,
	}
	t.emit(&seg)
}

// emit marshals seg straight into a new packet's transport window and
// sends it: one allocation per segment. Link errors are counted and
// traced; the caller's retransmission state decides what happens next.
func (t *TCB) emit(seg *tcpSegment) {
	host := t.sock.host
	pkt := NewPacket(tcpHeaderLen + len(seg.Payload))
	seg.marshal(pkt.Transport())
	if err := host.SendIP(t.sock.RemoteAddr, ProtoTCP, pkt); err != kbase.EOK {
		t.TxErrors++
		host.stats.TxErrors++
		tpTCPTxErr.Emit(0, uint64(err), uint64(t.sock.LocalPort))
	}
}

// finAcked handles our FIN being acknowledged.
func (t *TCB) finAcked(now uint64) {
	switch t.State {
	case StateFinWait1:
		t.State = StateFinWait2
	case StateClosing:
		t.enterTimeWait(now)
	case StateLastAck:
		t.State = StateClosed
	}
}

// progressClose emits a queued FIN once the send buffer drains.
func (t *TCB) progressClose() {
	if t.finQueued && !t.finSent && len(t.sendBuf) == 0 {
		t.transmit(FlagFIN|FlagACK, t.sendNext, nil, true)
		t.sendNext++
		t.finSent = true
	}
}

// canSendData reports whether the connection may still emit payload:
// established, or closing with our FIN not yet on the wire (the FIN
// waits for the send buffer to drain).
func (t *TCB) canSendData() bool {
	switch t.State {
	case StateEstablished, StateCloseWait:
		return true
	case StateFinWait1, StateLastAck, StateClosing:
		return !t.finSent
	}
	return false
}

// pump segments the send buffer up to both the segment window and the
// peer's advertised byte window.
func (t *TCB) pump() {
	if !t.canSendData() {
		return
	}
	for len(t.sendBuf) > 0 && len(t.unacked) < SendWindowSeg {
		room := int(t.peerWnd) - t.inFlight
		if room <= 0 {
			break // closed window: tick() probes it open
		}
		n := min(len(t.sendBuf), MSS, room)
		chunk := make([]byte, n)
		copy(chunk, t.sendBuf[:n])
		t.sendBuf = t.sendBuf[n:]
		t.transmit(FlagACK, t.sendNext, chunk, true)
		t.sendNext += uint32(n)
	}
	t.progressClose()
}

// onTimer fires when the wheel reaches the connection's earliest
// deadline. It runs exactly the checks the old per-jiffy tick ran —
// TIME_WAIT expiry, retransmission (too many retries resets the
// connection with a typed ETIMEDOUT), zero-window probes, the send
// pump — but only at jiffies where a deadline actually expires, then
// re-arms for the next one.
func (t *TCB) onTimer(now uint64) {
	if t.State == StateTimeWait {
		if now >= t.timeWaitAt {
			t.State = StateClosed
		}
		t.rearm()
		return
	}
	if t.State == StateClosed || t.State == StateListen {
		t.rearm()
		return
	}
	for i := range t.unacked {
		u := &t.unacked[i]
		if u.deadline > now {
			continue
		}
		if u.retries >= MaxRetries {
			t.State = StateClosed
			t.ResetErr = kbase.ETIMEDOUT
			t.ResetReason = "retransmission limit"
			t.transmit(FlagRST, t.sendNext, nil, false)
			t.rearm()
			return
		}
		t.retransmitSeg(u, now)
	}
	// Zero-window probe: the peer advertised no room and everything
	// sent is acked, so nothing will ever trigger a window update.
	// Send one byte (tracked, so it retries like any segment); the
	// receiver soft-accepts it and its ACK carries the fresh window.
	if t.canSendData() && len(t.sendBuf) > 0 && len(t.unacked) == 0 &&
		t.peerWnd == 0 && now >= t.probeAt {
		chunk := []byte{t.sendBuf[0]}
		t.sendBuf = t.sendBuf[1:]
		t.sock.host.stats.ZeroWndProbes++
		t.transmit(FlagACK, t.sendNext, chunk, true)
		t.sendNext++
		t.probeAt = now + t.rto()
	}
	t.pump()
	t.rearm()
}

// tcbSend queues payload for transmission.
func (t *TCB) tcbSend(data []byte) kbase.Errno {
	switch t.State {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
		if t.finQueued {
			return kbase.EPIPE
		}
		t.sendBuf = append(t.sendBuf, data...)
		tpTCPSend.Emit(0, uint64(len(data)), uint64(t.sock.LocalPort))
		t.pump()
		t.rearm()
		return kbase.EOK
	default:
		if t.ResetErr != kbase.EOK {
			return t.ResetErr
		}
		return kbase.ENOTCONN
	}
}

// tcbRecv drains up to len(buf) received bytes. Buffered data always
// drains first; only then does a typed reset (ECONNRESET/ETIMEDOUT)
// or a clean EOF surface.
func (t *TCB) tcbRecv(buf []byte) (int, kbase.Errno) {
	if len(t.recvBuf) == 0 {
		if t.ResetErr != kbase.EOK {
			return 0, t.ResetErr
		}
		if t.peerFIN || t.State == StateClosed {
			return 0, kbase.EOK // clean EOF
		}
		return 0, kbase.EAGAIN
	}
	wndBefore := t.advertiseWnd()
	n := copy(buf, t.recvBuf)
	t.recvBuf = t.recvBuf[n:]
	tpTCPRecv.Emit(0, uint64(n), uint64(t.sock.LocalPort))
	// Window update: if the drain reopened a window the peer saw as
	// (nearly) closed, tell it now rather than waiting for its probe.
	if wndBefore < MSS && t.advertiseWnd() >= MSS &&
		t.State != StateClosed && t.State != StateListen && t.State != StateTimeWait {
		t.sendAck()
	}
	return n, kbase.EOK
}

// tcbClose initiates an orderly shutdown.
func (t *TCB) tcbClose() {
	switch t.State {
	case StateEstablished:
		t.State = StateFinWait1
		t.finQueued = true
		t.progressClose()
	case StateCloseWait:
		t.State = StateLastAck
		t.finQueued = true
		t.progressClose()
	case StateSynSent, StateSynRcvd, StateListen:
		t.State = StateClosed
	}
	t.rearm()
}
