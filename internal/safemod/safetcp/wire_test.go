package safetcp

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safety/own"
)

// marshalSeg marshals s into a fresh transport buffer.
func marshalSeg(s *Segment) []byte {
	b := make([]byte, headerLen+len(s.Payload))
	s.marshal(b)
	return b
}

// tap sits in front of an endpoint and records every transport payload
// its host receives — a slice into the delivered packet — with a
// snapshot of the bytes at delivery.
type tap struct {
	ep        *Endpoint
	got, snap [][]byte
}

func (p *tap) ProtoName() string { return "tap" }
func (p *tap) Tick(now uint64)   { p.ep.Tick(now) }

func (p *tap) HandleSegment(src net.Addr, payload []byte) {
	p.got = append(p.got, payload)
	p.snap = append(p.snap, append([]byte(nil), payload...))
	p.ep.HandleSegment(src, payload)
}

// checkUnwritten fails the test if any delivered packet changed after
// its delivery, and returns how many deliveries shared each buffer.
func (p *tap) checkUnwritten(t *testing.T) map[*byte]int {
	t.Helper()
	shared := make(map[*byte]int)
	for i, b := range p.got {
		if !bytes.Equal(b, p.snap[i]) {
			t.Fatalf("delivered packet %d was written after delivery", i)
		}
		if len(b) > 0 {
			shared[&b[0]]++
		}
	}
	return shared
}

// TestDuplicatedStreamSafe runs a safetcp stream over a link that
// duplicates every packet. Without corruption every delivered buffer is
// shared by its two copies; with some, the stream still arrives intact;
// with every copy corrupted, nothing is accepted. In all three, no
// receiver writes into a delivered packet.
func TestDuplicatedStreamSafe(t *testing.T) {
	for _, corrupt := range []float64{0, 0.2, 1} {
		sim := net.NewSim(11)
		ha, hb := sim.AddHost(1), sim.AddHost(2)
		sim.Link(1, 2, net.LinkParams{Delay: 1, DupProb: 1, CorruptProb: corrupt})
		ck := own.NewChecker(own.PolicyRecord)
		ta, tb := &tap{ep: Attach(ha, ck)}, &tap{ep: Attach(hb, ck)}
		ha.InstallStreamProto(ta)
		hb.InstallStreamProto(tb)
		if corrupt == 1 {
			l, _ := tb.ep.Listen(80)
			c, _ := ta.ep.Connect(2, 80)
			sim.Run(200)
			if _, err := l.Accept(); err == kbase.EOK || c.Established() {
				t.Fatalf("a connection came up over a link that corrupts every packet")
			}
			bad := ktrace.Read(ha.CollectMetrics, "bad_packets") + ktrace.Read(hb.CollectMetrics, "bad_packets") +
				ta.ep.stats.BadSegment + tb.ep.stats.BadSegment
			if bad != sim.Stats().Delivered {
				t.Fatalf("%d bad of %d delivered", bad, sim.Stats().Delivered)
			}
			ta.checkUnwritten(t)
			tb.checkUnwritten(t)
			continue
		}
		c, srv := connect(t, sim, ta.ep, tb.ep, 80)
		payload := make([]byte, 12000)
		for i := range payload {
			payload[i] = byte(i*13 + 1)
		}
		c.Send(payload)
		var got []byte
		buf := make([]byte, 2048)
		sim.RunUntil(func() bool {
			for {
				n, _ := srv.Recv(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			return len(got) >= len(payload) && sim.InFlight() == 0
		}, 20000)
		if !bytes.Equal(got, payload) {
			t.Fatalf("corrupt=%v: stream mismatch: got %d of %d bytes", corrupt, len(got), len(payload))
		}
		for _, tp := range []*tap{ta, tb} {
			for _, n := range tp.checkUnwritten(t) {
				if n > 2 || (corrupt == 0 && n != 2) {
					t.Fatalf("corrupt=%v: a buffer was delivered %d times", corrupt, n)
				}
			}
		}
		if v := ck.Violations(); len(v) != 0 {
			t.Fatalf("ownership violations: %v", v)
		}
	}
}

// TestSendPathAllocs pins the per-segment send path to one allocation:
// the packet the segment is marshalled into. The measured op sends a
// pure ACK and steps the sim, so the receive path of an ACK is pinned
// allocation-free with it.
func TestSendPathAllocs(t *testing.T) {
	sim, a, b := pair(t, 5, net.LinkParams{Delay: 1})
	c, _ := connect(t, sim, a, b, 80)
	allocs := testing.AllocsPerRun(200, func() {
		c.sendAck()
		sim.Step()
	})
	if allocs != 1 {
		t.Fatalf("send path: %v allocs per segment, want 1", allocs)
	}
}

// BenchmarkSegmentRoundTrip moves one payload per op through safetcp:
// marshal, send, Sim.Step, parse and deliver into an owned cell, then
// the receiver drains it. 1 KiB is two MSS-sized segments.
func BenchmarkSegmentRoundTrip(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"1KiB", 1024}} {
		b.Run(size.name, func(b *testing.B) {
			sim := net.NewSim(1)
			ha, hb := sim.AddHost(1), sim.AddHost(2)
			sim.Link(1, 2, net.LinkParams{Delay: 1})
			ck := own.NewChecker(own.PolicyRecord)
			epA, epB := Attach(ha, ck), Attach(hb, ck)
			l, _ := epB.Listen(80)
			c, _ := epA.Connect(2, 80)
			var srv *Conn
			sim.RunUntil(func() bool {
				if srv == nil {
					srv, _ = l.Accept()
				}
				return srv != nil && c.Established()
			}, 1000)
			if srv == nil {
				b.Fatal("handshake stalled")
			}
			payload := make([]byte, size.n)
			buf := make([]byte, 2*size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Send(payload)
				sim.Step()
				if n, _ := srv.Recv(buf); n != size.n {
					b.Fatalf("received %d bytes, want %d", n, size.n)
				}
			}
		})
	}
}
