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

// TestConnectRefusedTimesOut checks the reason the connection records
// when its SYN goes unanswered; faultinject's TestStreamConnectClosedPort
// checks the typed errno on both stacks.
func TestConnectRefusedTimesOut(t *testing.T) {
	sim, a, _ := pair(t, 4, net.LinkParams{Delay: 1})
	c, _ := a.Connect(2, 9999)
	if !sim.RunUntil(c.Closed, 100000) {
		t.Fatalf("orphan SYN never gave up: %s", c.State())
	}
	if c.ResetReason != "retransmission limit" {
		t.Fatalf("reset reason %q", c.ResetReason)
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
