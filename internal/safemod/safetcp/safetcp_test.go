package safetcp

import (
	"bytes"
	"testing"
	"testing/quick"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safety/own"
)

func pair(t *testing.T, seed uint64, lp net.LinkParams) (*net.Sim, *Endpoint, *Endpoint) {
	t.Helper()
	sim := net.NewSim(seed)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, lp)
	ck := own.NewChecker(own.PolicyRecord)
	epA := Attach(a, ck)
	epB := Attach(b, ck)
	if a.StreamProtoName() != "safetcp" {
		t.Fatalf("proto = %s", a.StreamProtoName())
	}
	return sim, epA, epB
}

func connect(t *testing.T, sim *net.Sim, a, b *Endpoint, port uint16) (*Conn, *Conn) {
	t.Helper()
	l, err := b.Listen(port)
	if err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	c, err := a.Connect(2, port)
	if err != kbase.EOK {
		t.Fatalf("Connect: %v", err)
	}
	var srv *Conn
	ok := sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 5000)
	if !ok {
		t.Fatalf("handshake stalled: client=%s", c.State())
	}
	return c, srv
}

func TestSegmentRoundTrip(t *testing.T) {
	s := Segment{
		SrcPort: 80, DstPort: 49152, Seq: 7, Ack: 9,
		Flags:   Flags{SYN: true, ACK: true},
		Payload: []byte("data"),
	}
	res := ParseSegment(marshalSeg(&s))
	got, err := res.Get()
	if err != kbase.EOK {
		t.Fatalf("parse: %v", err)
	}
	if got.SrcPort != 80 || got.Seq != 7 || !got.Flags.SYN || !got.Flags.ACK ||
		!bytes.Equal(got.Payload, []byte("data")) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestSegmentValidation(t *testing.T) {
	s := Segment{SrcPort: 1, DstPort: 2, Payload: []byte("xyz")}
	wire := marshalSeg(&s)
	// Truncated.
	if ParseSegment(wire[:10]).IsOk() {
		t.Fatalf("runt accepted")
	}
	// Length mismatch.
	if ParseSegment(wire[:len(wire)-1]).IsOk() {
		t.Fatalf("short payload accepted")
	}
	// Every single-bit flip, at every offset, of header and payload.
	for _, n := range []int{0, 1, 64} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*37 + 5)
		}
		s := Segment{SrcPort: 49152, DstPort: 80, Seq: 0x01020304, Ack: 0xA0B0C0D0,
			Flags: Flags{ACK: true, FIN: true}, Wnd: 4096, Payload: payload}
		wire := marshalSeg(&s)
		if !ParseSegment(wire).IsOk() {
			t.Fatalf("intact %d-byte segment rejected", n)
		}
		bad := make([]byte, len(wire))
		for i := range wire {
			for bit := 0; bit < 8; bit++ {
				copy(bad, wire)
				bad[i] ^= 1 << bit
				if ParseSegment(bad).IsOk() {
					t.Fatalf("%d-byte segment: flip of bit %d at offset %d accepted", n, bit, i)
				}
			}
		}
	}
}

func TestSegmentPropertyRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, fl uint8, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		s := Segment{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: decodeFlags(fl & 0x0F), Payload: payload}
		got, err := ParseSegment(marshalSeg(&s)).Get()
		if err != kbase.EOK {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == s.Flags && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeAndTransfer(t *testing.T) {
	sim, a, b := pair(t, 1, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := c.Send(payload); err != kbase.EOK {
		t.Fatalf("Send: %v", err)
	}
	var got []byte
	buf := make([]byte, 1024)
	ok := sim.RunUntil(func() bool {
		for {
			n, _ := srv.Recv(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, 20000)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("transfer: got %d/%d", len(got), len(payload))
	}
}

func TestTransferUnderLoss(t *testing.T) {
	sim, a, b := pair(t, 2, net.LinkParams{Delay: 1, LossProb: 0.15, DupProb: 0.05, ReorderJitter: 4})
	c, srv := connect(t, sim, a, b, 80)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	c.Send(payload)
	var got []byte
	buf := make([]byte, 2048)
	ok := sim.RunUntil(func() bool {
		for {
			n, _ := srv.Recv(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, 60000)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("lossy transfer: got %d/%d", len(got), len(payload))
	}
	if c.Retransmits == 0 {
		t.Fatalf("loss never triggered retransmission")
	}
	// Ownership ledger must be clean despite loss/dup/reorder.
	if n := a.Checker().Count(); n != 0 {
		t.Fatalf("ownership violations: %v", a.Checker().Violations())
	}
}

func TestOrderlyCloseAndEOF(t *testing.T) {
	sim, a, b := pair(t, 3, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	c.Send([]byte("bye"))
	c.Close()
	buf := make([]byte, 64)
	var got []byte
	eof := false
	sim.RunUntil(func() bool {
		n, e := srv.Recv(buf)
		if n > 0 {
			got = append(got, buf[:n]...)
		} else if e == kbase.EOK && len(got) == 3 {
			eof = true
		}
		return eof
	}, 5000)
	if string(got) != "bye" || !eof {
		t.Fatalf("close: got %q eof=%v", got, eof)
	}
	srv.Close()
	if !sim.RunUntil(func() bool { return c.Closed() && srv.Closed() }, 5000) {
		t.Fatalf("shutdown stalled: c=%s srv=%s", c.State(), srv.State())
	}
	if err := c.Send([]byte("x")); err != kbase.ENOTCONN && err != kbase.EPIPE {
		t.Fatalf("send after close: %v", err)
	}
}

func TestConnectRefusedTimesOut(t *testing.T) {
	sim, a, _ := pair(t, 4, net.LinkParams{Delay: 1})
	c, _ := a.Connect(2, 9999)
	if !sim.RunUntil(func() bool { return c.Closed() }, 100000) {
		t.Fatalf("orphan SYN never gave up: %s", c.State())
	}
	if c.ResetReason == "" {
		t.Fatalf("no reset reason")
	}
}

func TestRecvOwnershipNoLeaks(t *testing.T) {
	sim, a, b := pair(t, 5, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	ck := a.Checker()
	c.Send(bytes.Repeat([]byte("A"), 4*MSS))
	sim.RunUntil(func() bool { return srv.Buffered() >= 4*MSS }, 10000)
	// Partial reads across buffer boundaries.
	buf := make([]byte, 700)
	total := 0
	for total < 4*MSS {
		n, err := srv.Recv(buf)
		if err != kbase.EOK && err != kbase.EAGAIN {
			t.Fatalf("Recv: %v", err)
		}
		if n == 0 {
			sim.Run(10)
			continue
		}
		total += n
	}
	if srv.Buffered() != 0 {
		t.Fatalf("Buffered = %d after drain", srv.Buffered())
	}
	// Every delivered payload cell was freed on consumption.
	if n := ck.LiveCount(); n != 0 {
		t.Fatalf("%d rx cells leaked", n)
	}
	if ck.Count() != 0 {
		t.Fatalf("ownership violations: %v", ck.Violations())
	}
}

func TestConnectionDeathFreesUndeliveredBuffers(t *testing.T) {
	sim, a, b := pair(t, 6, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	ck := a.Checker()
	c.Send([]byte("undelivered data sitting in the queue"))
	sim.RunUntil(func() bool { return srv.Buffered() > 0 }, 5000)
	// Kill the server side without reading.
	srv.drainRecvQ()
	if n := ck.LiveCount(); n != 0 {
		t.Fatalf("%d cells leaked after drain", n)
	}
}

func TestGarbageSegmentsCounted(t *testing.T) {
	sim, _, b := pair(t, 7, net.LinkParams{Delay: 1})
	_ = sim
	b.HandleSegment(1, []byte{1, 2, 3})
	if b.stats.BadSegment != 1 {
		t.Fatalf("BadSegment = %d", b.stats.BadSegment)
	}
}

func TestListenConflictAndClose(t *testing.T) {
	_, a, _ := pair(t, 8, net.LinkParams{Delay: 1})
	l, err := a.Listen(80)
	if err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := a.Listen(80); err != kbase.EEXIST {
		t.Fatalf("dup listen: %v", err)
	}
	l.Close()
	if _, err := a.Listen(80); err != kbase.EOK {
		t.Fatalf("relisten: %v", err)
	}
}

func TestMultipleConnections(t *testing.T) {
	sim, a, b := pair(t, 9, net.LinkParams{Delay: 1, LossProb: 0.05})
	l, _ := b.Listen(80)
	const N = 4
	var clients [N]*Conn
	for i := range clients {
		clients[i], _ = a.Connect(2, 80)
	}
	var servers []*Conn
	ok := sim.RunUntil(func() bool {
		for {
			s, e := l.Accept()
			if e != kbase.EOK {
				break
			}
			servers = append(servers, s)
		}
		if len(servers) < N {
			return false
		}
		for _, c := range clients {
			if !c.Established() {
				return false
			}
		}
		return true
	}, 30000)
	if !ok {
		t.Fatalf("connections: %d/%d", len(servers), N)
	}
	for i, c := range clients {
		c.Send([]byte{byte(i + 1)})
	}
	seen := map[byte]bool{}
	sim.RunUntil(func() bool {
		for _, s := range servers {
			buf := make([]byte, 4)
			if n, _ := s.Recv(buf); n > 0 {
				seen[buf[0]] = true
			}
		}
		return len(seen) == N
	}, 30000)
	if len(seen) != N {
		t.Fatalf("delivery map: %v", seen)
	}
}

func TestModuleMetadata(t *testing.T) {
	m := Module{}
	if m.ModuleName() != "safetcp" || m.Implements().Name != IfaceName {
		t.Fatalf("metadata wrong")
	}
	if m.Level().String() != "ownership-safe" {
		t.Fatalf("level = %s", m.Level())
	}
	lm := LegacyModule{}
	if lm.Level().String() != "legacy" || lm.Implements().Name != IfaceName {
		t.Fatalf("legacy metadata wrong")
	}
}

// Property: stream integrity under loss for arbitrary payloads.
func TestStreamIntegrityProperty(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		sim := net.NewSim(seed)
		ha := sim.AddHost(1)
		hb := sim.AddHost(2)
		sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: 0.1, ReorderJitter: 3})
		a := Attach(ha, nil)
		b := Attach(hb, nil)
		l, _ := b.Listen(80)
		c, _ := a.Connect(2, 80)
		var srv *Conn
		sim.RunUntil(func() bool {
			if srv == nil {
				if s, e := l.Accept(); e == kbase.EOK {
					srv = s
				}
			}
			return srv != nil && c.Established()
		}, 5000)
		if srv == nil {
			return false
		}
		c.Send(data)
		var got []byte
		buf := make([]byte, 512)
		sim.RunUntil(func() bool {
			for {
				n, _ := srv.Recv(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			return len(got) >= len(data)
		}, 40000)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
