package net

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// sendAll is a test helper: queue payload and pump the sim until the
// receiver has drained exactly the payload (or the step limit hits).
func sendAll(t *testing.T, sim *Sim, src, dst *Socket, payload []byte, limit int) []byte {
	t.Helper()
	if err := src.Send(payload); err != kbase.EOK {
		t.Fatalf("Send: %v", err)
	}
	var got []byte
	buf := make([]byte, 2048)
	sim.RunUntil(func() bool {
		for {
			n, _ := dst.Recv(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, limit)
	return got
}

func patterned(n int, k byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*k + k
	}
	return p
}

// --- Satellite 1: duplicates and out-of-order segments always re-ACK
// rcvNext. ---

func TestDuplicateSegmentReAcks(t *testing.T) {
	sim, a, b := pair(t, 21, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	if got := sendAll(t, sim, c, srv, []byte("hello"), 2000); string(got) != "hello" {
		t.Fatalf("transfer: %q", got)
	}
	stcb := srv.private.(*TCB)
	// Replay an already-consumed (duplicate) data segment straight
	// into the server TCB: an ACK goes on the wire, and neither
	// rcvNext nor the receive buffer moves.
	before := sim.Stats().Sent
	rcvNext := stcb.rcvNext
	stcb.handle(tcpSegment{
		SrcPort: c.LocalPort, DstPort: srv.LocalPort,
		Seq: rcvNext - 5, Ack: stcb.sendNext, Flags: FlagACK,
		Wnd: 0xFFFF, Payload: []byte("hello"),
	})
	if sim.Stats().Sent != before+1 {
		t.Fatalf("duplicate segment not re-ACKed: sent %d -> %d", before, sim.Stats().Sent)
	}
	if stcb.rcvNext != rcvNext {
		t.Fatalf("duplicate segment advanced rcvNext by %d", stcb.rcvNext-rcvNext)
	}
	if n := srv.BufferedRecv(); n != 0 {
		t.Fatalf("duplicate segment buffered %d bytes", n)
	}
}

func TestOutOfOrderSegmentReAcksAndReassembles(t *testing.T) {
	sim, a, b := pair(t, 22, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	ctcb := c.private.(*TCB)
	stcb := srv.private.(*TCB)
	// Deliver segment 2 before segment 1, directly.
	base := stcb.rcvNext
	before := sim.Stats().Sent
	stcb.handle(tcpSegment{
		SrcPort: c.LocalPort, DstPort: srv.LocalPort,
		Seq: base + 4, Ack: stcb.sendNext, Flags: FlagACK,
		Wnd: 0xFFFF, Payload: []byte("tail"),
	})
	if sim.Stats().Sent != before+1 {
		t.Fatalf("out-of-order segment not re-ACKed")
	}
	if stcb.rcvNext != base {
		t.Fatalf("out-of-order segment advanced rcvNext")
	}
	if len(stcb.reasm) != 1 {
		t.Fatalf("segment not queued for reassembly: %d", len(stcb.reasm))
	}
	// Now the hole fills; both segments should deliver in order.
	stcb.handle(tcpSegment{
		SrcPort: c.LocalPort, DstPort: srv.LocalPort,
		Seq: base, Ack: stcb.sendNext, Flags: FlagACK,
		Wnd: 0xFFFF, Payload: []byte("head"),
	})
	buf := make([]byte, 16)
	n, _ := srv.Recv(buf)
	if string(buf[:n]) != "headtail" {
		t.Fatalf("reassembly produced %q", buf[:n])
	}
	if stcb.rcvNext != base+8 {
		t.Fatalf("rcvNext = base+%d, want base+8", stcb.rcvNext-base)
	}
	_ = ctcb
}

// --- Satellite 2: data queued before the handshake completes drains
// as soon as the connection is promoted. ---

func TestConnectThenImmediateSend(t *testing.T) {
	sim, a, b := pair(t, 23, LinkParams{Delay: 2})
	l, _ := b.ListenTCP(80)
	c, _ := a.ConnectTCP(b.Addr(), 80)
	// Queue data while still in SynSent — before any handshake packet
	// has even been delivered.
	if c.Established() {
		t.Fatal("established too early")
	}
	payload := patterned(3000, 5)
	if err := c.Send(payload); err != kbase.EOK {
		t.Fatalf("Send in %s: %v", c.State(), err)
	}
	var srv *Socket
	var got []byte
	buf := make([]byte, 1024)
	ok := sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
			return false
		}
		for {
			n, _ := srv.Recv(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, 10000)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("pre-handshake send: %d/%d bytes, ok=%v", len(got), len(payload), ok)
	}
}

// --- Satellite 3: a reordered old ACK must not regress lastAck or
// corrupt duplicate-ACK counting. ---

func TestOldAckIgnored(t *testing.T) {
	sim, a, b := pair(t, 24, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	if got := sendAll(t, sim, c, srv, patterned(2048, 3), 5000); len(got) != 2048 {
		t.Fatalf("transfer: %d", len(got))
	}
	ctcb := c.private.(*TCB)
	last := ctcb.lastAck
	dups := ctcb.dupAcks
	// An old ACK from earlier in the stream arrives late (reordered).
	ctcb.handle(tcpSegment{
		SrcPort: srv.LocalPort, DstPort: c.LocalPort,
		Seq: ctcb.rcvNext, Ack: last - 512, Flags: FlagACK, Wnd: 0xFFFF,
	})
	if ctcb.lastAck != last {
		t.Fatalf("old ACK regressed lastAck: %d -> %d", last, ctcb.lastAck)
	}
	if ctcb.dupAcks != dups {
		t.Fatalf("old ACK corrupted dupAcks: %d -> %d", dups, ctcb.dupAcks)
	}
}

// --- Satellite 4: transmit errors surface through stats instead of
// vanishing. ---

func TestTxErrorsSurfaced(t *testing.T) {
	sim, a, b := pair(t, 26, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	sim.Partition(a.Addr(), b.Addr())
	c.Send([]byte("into the void"))
	sim.Run(100)
	ctcb := c.private.(*TCB)
	if ctcb.TxErrors == 0 {
		t.Fatalf("partitioned transmit not counted on the TCB")
	}
	if a.stats.TxErrors == 0 {
		t.Fatalf("partitioned transmit not counted on the host")
	}
	if sim.Stats().PartitionDrops == 0 {
		t.Fatalf("sim did not count partition drops")
	}
	_ = srv
}

// --- Close-path state machine. ---

func TestSimultaneousClose(t *testing.T) {
	sim, a, b := pair(t, 27, LinkParams{Delay: 2})
	c, srv := connectPair(t, sim, a, b, 80)
	// Both sides close in the same jiffy: FINs cross on the wire.
	c.Close()
	srv.Close()
	ctcb := c.private.(*TCB)
	stcb := srv.private.(*TCB)
	sawClosing := false
	ok := sim.RunUntil(func() bool {
		if ctcb.State == StateClosing || stcb.State == StateClosing {
			sawClosing = true
		}
		return c.Closed() && srv.Closed()
	}, 5000)
	if !ok {
		t.Fatalf("simultaneous close stuck: c=%s srv=%s", c.State(), srv.State())
	}
	if !sawClosing {
		t.Fatalf("simultaneous close never passed through Closing")
	}
}

func TestRecvAfterFinDrainsBufferedData(t *testing.T) {
	sim, a, b := pair(t, 29, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	payload := patterned(2000, 9)
	c.Send(payload)
	c.Close()
	// Let everything (data + FIN) land before the first Recv.
	sim.RunUntil(func() bool {
		tcb := srv.private.(*TCB)
		return tcb.peerFIN
	}, 5000)
	var got []byte
	buf := make([]byte, 512)
	for {
		n, e := srv.Recv(buf)
		if n > 0 {
			got = append(got, buf[:n]...)
			continue
		}
		if e != kbase.EOK {
			t.Fatalf("recv after FIN: %v", e)
		}
		break // EOF only after the buffer drained
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("buffered data truncated at FIN: %d/%d", len(got), len(payload))
	}
}

func TestPeerResetSurfacesAfterDrain(t *testing.T) {
	sim, a, b := pair(t, 31, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	if got := sendAll(t, sim, c, srv, []byte("keep this"), 2000); string(got) != "keep this" {
		t.Fatalf("transfer: %q", got)
	}
	c.Send([]byte("more"))
	sim.RunUntil(func() bool { return srv.BufferedRecv() == 4 }, 2000)
	// Inject a RST at the server.
	stcb := srv.private.(*TCB)
	stcb.handle(tcpSegment{Flags: FlagRST})
	buf := make([]byte, 16)
	n, e := srv.Recv(buf)
	if n != 4 || string(buf[:n]) != "more" || e != kbase.EOK {
		t.Fatalf("buffered data lost on reset: n=%d %q err=%v", n, buf[:n], e)
	}
	if _, e := srv.Recv(buf); e != kbase.ECONNRESET {
		t.Fatalf("reset not surfaced after drain: %v", e)
	}
}

func TestTimeWaitAbsorbsLostFinalAck(t *testing.T) {
	sim, a, b := pair(t, 32, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	ctcb := c.private.(*TCB)
	c.Close()
	srv.Close()
	// Active closer must pass through TIME_WAIT and linger there.
	sawTimeWait := false
	var twEntered uint64
	ok := sim.RunUntil(func() bool {
		if ctcb.State == StateTimeWait && !sawTimeWait {
			sawTimeWait = true
			twEntered = sim.Clock().Now()
		}
		return c.Closed() && srv.Closed()
	}, 5000)
	if !ok {
		t.Fatalf("close stuck: c=%s srv=%s", c.State(), srv.State())
	}
	if !sawTimeWait {
		t.Fatalf("active closer skipped TIME_WAIT")
	}
	if held := sim.Clock().Now() - twEntered; held < TimeWaitJiffies {
		t.Fatalf("TIME_WAIT held %d jiffies, want >= %d", held, TimeWaitJiffies)
	}
	// While in TIME_WAIT a retransmitted FIN gets re-ACKed.
	sim2, a2, b2 := pair(t, 33, LinkParams{Delay: 1})
	c2, srv2 := connectPair(t, sim2, a2, b2, 80)
	ct2 := c2.private.(*TCB)
	c2.Close()
	srv2.Close()
	sim2.RunUntil(func() bool { return ct2.State == StateTimeWait }, 5000)
	before := sim2.Stats().Sent
	ct2.handle(tcpSegment{
		SrcPort: srv2.LocalPort, DstPort: c2.LocalPort,
		Seq: ct2.rcvNext - 1, Ack: ct2.sendNext, Flags: FlagFIN | FlagACK, Wnd: 0xFFFF,
	})
	if sim2.Stats().Sent != before+1 {
		t.Fatalf("retransmitted FIN in TIME_WAIT not re-ACKed")
	}
}

// --- Adversarial links. ---

func TestOneWayPartition(t *testing.T) {
	sim, a, b := pair(t, 38, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	// Cut only the server->client direction: data flows, ACKs do not.
	sim.PartitionOneWay(b.Addr(), a.Addr())
	c.Send(patterned(1024, 23))
	sim.Run(100)
	if srv.BufferedRecv() == 0 {
		t.Fatalf("forward direction should still deliver")
	}
	ctcb := c.private.(*TCB)
	if len(ctcb.unacked) == 0 && len(ctcb.sendBuf) == 0 {
		t.Fatalf("sender believes data was acked across a cut return path")
	}
	sim.Heal(b.Addr(), a.Addr())
	ok := sim.RunUntil(func() bool {
		ct := c.private.(*TCB)
		return len(ct.unacked) == 0 && len(ct.sendBuf) == 0
	}, 60000)
	if !ok {
		t.Fatalf("sender never recovered after heal")
	}
}

func TestBandwidthShapingDelaysDelivery(t *testing.T) {
	// A 64 B/jiffy link serializes a 4 KiB burst over ~70 jiffies;
	// an unshaped link delivers it in a handful.
	run := func(bw uint64) uint64 {
		sim := NewSim(39)
		a := sim.AddHost(1)
		b := sim.AddHost(2)
		sim.Link(1, 2, LinkParams{Delay: 1, BandwidthBPJ: bw})
		l, _ := b.ListenTCP(80)
		c, _ := a.ConnectTCP(2, 80)
		var srv *Socket
		sim.RunUntil(func() bool {
			if srv == nil {
				if s, e := l.Accept(); e == kbase.EOK {
					srv = s
				}
			}
			return srv != nil && c.Established()
		}, 2000)
		start := sim.Clock().Now()
		payload := patterned(4096, 29)
		c.Send(payload)
		var got []byte
		buf := make([]byte, 512)
		sim.RunUntil(func() bool {
			if n, _ := srv.Recv(buf); n > 0 {
				got = append(got, buf[:n]...)
			}
			return len(got) >= len(payload)
		}, 120000)
		if len(got) != len(payload) {
			t.Fatalf("bw=%d transfer incomplete: %d", bw, len(got))
		}
		return sim.Clock().Now() - start
	}
	shaped := run(64)
	unshaped := run(0)
	if shaped <= unshaped {
		t.Fatalf("bandwidth shaping inert: shaped=%d unshaped=%d jiffies", shaped, unshaped)
	}
}

// --- Adaptive RTO. ---

// The stream suite's TestStreamAdaptiveRTO compares the adaptive and
// the fixed RTO on both stacks; this reads the estimator itself.
func TestAdaptiveRTOConverges(t *testing.T) {
	sim, a, b := pair(t, 40, LinkParams{Delay: 10})
	c, srv := connectPair(t, sim, a, b, 80)
	payload := patterned(8192, 31)
	got := sendAll(t, sim, c, srv, payload, 60000)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer: %d/%d", len(got), len(payload))
	}
	// RTT on this path is ~20+ jiffies; the estimator must sit above
	// it (no spurious retransmission storm) but well under MaxRTO.
	if rto := c.private.(*TCB).rto(); rto < 20 || rto > 128 {
		t.Fatalf("estimator did not converge: rto=%d", rto)
	}
}
