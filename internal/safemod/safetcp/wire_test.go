package safetcp

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/net"
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

// TestSafeDeliveredPacketsUnwritten taps safetcp's receive path while
// a stream crosses a link that duplicates every packet: no delivered
// packet changes after its delivery, an uncorrupted buffer is shared by
// its two copies, and no buffer is delivered more than twice. With
// every copy corrupted only handshake attempts cross. The stream itself
// is checked on both stacks by faultinject's TestStreamDuplicatingLink;
// the tap sits below the stream surface.
func TestSafeDeliveredPacketsUnwritten(t *testing.T) {
	for _, corrupt := range []float64{0, 0.2, 1} {
		sim, a, b := pair(t, 11, net.LinkParams{Delay: 1, DupProb: 1, CorruptProb: corrupt})
		ta, tb := &tap{ep: a}, &tap{ep: b}
		a.host.InstallStreamProto(ta)
		b.host.InstallStreamProto(tb)
		if corrupt == 1 {
			b.Listen(80)
			a.Connect(2, 80)
			sim.Run(200)
		} else {
			c, srv := connect(t, sim, a, b, 80)
			if got := pump(t, sim, c, srv, patterned(12000, 13), 20000); len(got) != 12000 {
				t.Fatalf("corrupt=%v: got %d of 12000 bytes", corrupt, len(got))
			}
		}
		for _, tp := range []*tap{ta, tb} {
			for _, n := range tp.checkUnwritten(t) {
				if n > 2 || (corrupt == 0 && n != 2) {
					t.Fatalf("corrupt=%v: a buffer was delivered %d times", corrupt, n)
				}
			}
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
