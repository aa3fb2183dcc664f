package net

import (
	"bytes"
	"hash/crc32"
	"testing"
	"testing/quick"

	"safelinux/internal/linuxlike/kbase"
)

// checkEveryBitFlip flips each bit of wire in turn and fails the test
// if accept takes any of the corrupted copies. accept must take wire
// itself, so a parser that rejects everything cannot pass.
func checkEveryBitFlip(t *testing.T, what string, wire []byte, accept func([]byte) bool) {
	t.Helper()
	if !accept(append([]byte(nil), wire...)) {
		t.Fatalf("%s: intact packet rejected", what)
	}
	bad := make([]byte, len(wire))
	for i := range wire {
		for bit := 0; bit < 8; bit++ {
			copy(bad, wire)
			bad[i] ^= 1 << bit
			if accept(bad) {
				t.Fatalf("%s: flip of bit %d at offset %d accepted", what, bit, i)
			}
		}
	}
}

// tcpPacket builds the wire packet the legacy stack sends for seg.
func tcpPacket(seg tcpSegment) Packet {
	pkt := NewPacket(tcpHeaderLen + len(seg.Payload))
	seg.marshal(pkt.Transport())
	pkt.fillIP(1, 2, ProtoTCP)
	return pkt
}

func TestEveryBitFlipRejected(t *testing.T) {
	acceptIP := func(b []byte) bool {
		_, _, _, _, err := ParseIP(b)
		return err == kbase.EOK
	}
	hdr := NewPacket(0)
	hdr.fillIP(0x0A000001, 0x0A000002, ProtoUDP)
	checkEveryBitFlip(t, "IP-lite header", hdr, acceptIP)

	acceptTCP := func(b []byte) bool {
		_, _, _, payload, err := ParseIP(b)
		if err != kbase.EOK {
			return false
		}
		_, err = parseTCP(payload)
		return err == kbase.EOK
	}
	for _, n := range []int{0, 1, 64} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*37 + 5)
		}
		seg := tcpSegment{SrcPort: 49152, DstPort: 80, Seq: 0x01020304,
			Ack: 0xA0B0C0D0, Flags: FlagACK, Wnd: 4096, Payload: payload}
		checkEveryBitFlip(t, "TCP-lite packet", tcpPacket(seg), acceptTCP)
	}
}

func TestChecksumRangesEqualConcatenation(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	f := func(b []byte, cut uint16) bool {
		k := 0
		if len(b) > 0 {
			k = int(cut) % (len(b) + 1)
		}
		want := crc32.Checksum(b, tab)
		return Checksum(b[:k], b[k:]) == want && Checksum(b, nil) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// tap is a stream protocol that records every transport payload its
// host receives — a slice into the delivered packet — with a snapshot
// of the bytes at delivery, then runs the legacy TCP receive path.
type tap struct {
	h         *Host
	got, snap [][]byte
}

func (p *tap) ProtoName() string { return "tap" }
func (p *tap) Tick(uint64)       {}

func (p *tap) HandleSegment(src Addr, payload []byte) {
	p.got = append(p.got, payload)
	p.snap = append(p.snap, append([]byte(nil), payload...))
	seg, err := parseTCP(payload)
	if err != kbase.EOK {
		p.h.stats.BadPacket++
		return
	}
	p.h.dispatchTCP(src, seg)
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

// TestSentPacketImmutable sends one packet over a link that duplicates
// everything: an uncorrupted duplicate is the sender's buffer, a
// corrupted copy is private, and the sender's bytes never change.
func TestSentPacketImmutable(t *testing.T) {
	for _, corrupt := range []float64{0, 1} {
		sim := NewSim(7)
		a := sim.AddHost(1)
		b := sim.AddHost(2)
		sim.Link(1, 2, LinkParams{Delay: 1, DupProb: 1, CorruptProb: corrupt})
		tp := &tap{h: b}
		b.InstallStreamProto(tp)
		seg := tcpSegment{SrcPort: 9, DstPort: 80, Seq: 1, Flags: FlagACK, Payload: []byte("immutable")}
		pkt := NewPacket(tcpHeaderLen + len(seg.Payload))
		seg.marshal(pkt.Transport())
		if err := a.SendIP(2, ProtoTCP, pkt); err != kbase.EOK {
			t.Fatalf("SendIP: %v", err)
		}
		sent := append(Packet(nil), pkt...)
		sim.Run(3)
		if !bytes.Equal(pkt, sent) {
			t.Fatalf("corrupt=%v: sender's packet changed after send", corrupt)
		}
		st := sim.Stats()
		if st.Duplicated != 1 || st.Corrupted != uint64(2*corrupt) {
			t.Fatalf("corrupt=%v: stats %+v", corrupt, st)
		}
		tp.checkUnwritten(t)
		for _, got := range tp.got {
			aliased := &got[0] == &pkt.Transport()[0]
			if corrupt == 0 && (!aliased || !bytes.Equal(got, pkt.Transport())) {
				t.Fatalf("uncorrupted duplicate is not the sender's intact buffer")
			}
			if corrupt == 1 && aliased {
				t.Fatalf("corrupted copy shares the sender's buffer")
			}
		}
		if corrupt == 0 && len(tp.got) != 2 {
			t.Fatalf("delivered %d copies, want 2", len(tp.got))
		}
	}
}

// TestDeliveredPacketsUnwritten taps the legacy receive path while a
// stream crosses a link that duplicates every packet: no delivered
// packet changes after its delivery, an uncorrupted buffer is shared
// by its two copies, and no buffer is delivered more than twice. With
// every copy corrupted only handshake attempts cross. The stream itself
// is checked on both stacks by faultinject's TestStreamDuplicatingLink;
// the tap sits below the stream surface.
func TestDeliveredPacketsUnwritten(t *testing.T) {
	for _, corrupt := range []float64{0, 0.2, 1} {
		sim, a, b := pair(t, 11, LinkParams{Delay: 1, DupProb: 1, CorruptProb: corrupt})
		ta, tb := &tap{h: a}, &tap{h: b}
		a.InstallStreamProto(ta)
		b.InstallStreamProto(tb)
		if corrupt == 1 {
			b.ListenTCP(80)
			a.ConnectTCP(2, 80)
			sim.Run(200)
		} else {
			c, srv := connectPair(t, sim, a, b, 80)
			if got := sendAll(t, sim, c, srv, patterned(12000, 13), 20000); len(got) != 12000 {
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
	sim, a, b := pair(t, 5, LinkParams{Delay: 1})
	c, _ := connectPair(t, sim, a, b, 80)
	tcb := c.private.(*TCB)
	allocs := testing.AllocsPerRun(200, func() {
		tcb.sendAck()
		sim.Step()
	})
	if allocs != 1 {
		t.Fatalf("send path: %v allocs per segment, want 1", allocs)
	}
}
