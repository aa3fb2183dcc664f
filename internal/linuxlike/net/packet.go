// Package net implements the network substrate of the simulated
// kernel: an IP-lite datagram layer over simulated lossy links, a
// UDP-lite datagram protocol, a legacy TCP with connection
// establishment, retransmission and teardown, and a generic socket
// layer written in the legacy Linux style the paper's §4.1 critiques:
// TCP-specific state is reached from generic socket code through
// untyped private fields.
//
// Everything is single-threaded and deterministic: a Sim owns all
// hosts, links and in-flight packets and advances in explicit steps.
package net

import (
	"encoding/binary"
	"hash/crc32"

	"safelinux/internal/linuxlike/kbase"
)

// Protocol numbers, as IP assigns them.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// ipHeaderLen is the fixed IP-lite header size: src(4) dst(4)
// proto(1) pad(1) totalLen(2) crc(4). Like real IPv4, the
// header carries its own checksum so a link that corrupts a length
// or address field produces a dropped packet, not a parser walking
// off the buffer.
const ipHeaderLen = 16

// tcpHeaderLen is the fixed TCP-lite header: ports(4) seq(4) ack(4)
// flags(1) pad(1) window(2) crc(4). The window is a real advertised
// receive window (flow control) and the checksum covers header and
// payload, so a corrupted segment is dropped instead of delivered.
const tcpHeaderLen = 20

// udpHeaderLen is the fixed UDP-lite header: ports(4) length(2) pad(2).
const udpHeaderLen = 8

// TCP flags.
const (
	FlagSYN = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Addr is an IP-lite host address.
type Addr uint32

// Packet is one wire packet: IP-lite header plus payload. Packets are
// raw byte slices parsed with manual offsets, as skb data is.
//
// A segment is one allocation from sender to receiver: NewPacket
// reserves headroom for the IP-lite header, the transport writes its
// header and payload into Transport(), and Host.SendIP fills the IP
// header in place. Once sent, a packet is immutable: the simulator may
// deliver a duplicate that shares its buffer, copies only a packet it
// corrupts, and no receiver writes into a packet.
type Packet []byte

// NewPacket allocates a packet with an n-byte transport window.
func NewPacket(n int) Packet { return make(Packet, ipHeaderLen+n) }

// Transport returns the packet's transport window: everything after
// the IP-lite header.
func (p Packet) Transport() []byte { return p[ipHeaderLen:] }

// fillIP writes the IP-lite header in front of the transport window.
func (p Packet) fillIP(src, dst Addr, proto byte) {
	le := binary.LittleEndian
	le.PutUint32(p[0:], uint32(src))
	le.PutUint32(p[4:], uint32(dst))
	p[8] = proto
	le.PutUint16(p[10:], uint16(len(p)))
	le.PutUint32(p[12:], ipChecksum(p))
}

// castagnoli is the CRC32C table. hash/crc32 runs it in hardware where
// the CPU has CRC instructions (SSE4.2 on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the wire checksum of every format on the wire: CRC32C
// over hdr followed by payload, equal to the CRC32C of the two ranges
// concatenated. A format passes its header up to the crc field as hdr
// and its payload after the header, so the crc field itself is never
// covered. Like any CRC it detects every single-bit flip, which is the
// Sim's corruption model.
func Checksum(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, hdr), castagnoli, payload)
}

// ipChecksum covers the header bytes preceding the crc field (the
// header-only scope real IPv4 uses; transports checksum their own
// payload).
func ipChecksum(p Packet) uint32 { return Checksum(p[:12], nil) }

// ParseIP validates and splits an IP-lite packet. A failed header
// checksum (bit rot on the wire) is a silent drop via EPROTO;
// structurally malformed packets that pass it raise an out-of-bounds
// oops (the legacy parser would have walked off the buffer).
func ParseIP(p Packet) (src, dst Addr, proto byte, payload []byte, err kbase.Errno) {
	if len(p) < ipHeaderLen {
		kbase.Oops(kbase.OopsOutOfBounds, "net", "runt IP packet: %d bytes", len(p))
		return 0, 0, 0, nil, kbase.EPROTO
	}
	le := binary.LittleEndian
	if le.Uint32(p[12:]) != ipChecksum(p) {
		return 0, 0, 0, nil, kbase.EPROTO // corrupted in flight: drop
	}
	total := int(le.Uint16(p[10:]))
	if total > len(p) || total < ipHeaderLen {
		kbase.Oops(kbase.OopsOutOfBounds, "net", "IP length %d of %d", total, len(p))
		return 0, 0, 0, nil, kbase.EPROTO
	}
	return Addr(le.Uint32(p[0:])), Addr(le.Uint32(p[4:])), p[8], p[ipHeaderLen:total], kbase.EOK
}

// tcpSegment is a parsed TCP-lite segment.
type tcpSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Wnd              uint16 // advertised receive window (bytes)
	Payload          []byte
}

// marshal writes the segment into b, which is exactly
// tcpHeaderLen+len(s.Payload) bytes (a packet's transport window).
func (s *tcpSegment) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], s.SrcPort)
	le.PutUint16(b[2:], s.DstPort)
	le.PutUint32(b[4:], s.Seq)
	le.PutUint32(b[8:], s.Ack)
	b[12] = s.Flags
	le.PutUint16(b[14:], s.Wnd)
	copy(b[tcpHeaderLen:], s.Payload)
	le.PutUint32(b[16:], tcpChecksum(b))
}

// tcpChecksum covers the header (excluding the crc field itself) and
// payload — the legacy stack's answer to link corruption.
func tcpChecksum(b []byte) uint32 { return Checksum(b[:16], b[tcpHeaderLen:]) }

func parseTCP(b []byte) (tcpSegment, kbase.Errno) {
	if len(b) < tcpHeaderLen {
		kbase.Oops(kbase.OopsOutOfBounds, "net", "runt TCP segment: %d bytes", len(b))
		return tcpSegment{}, kbase.EPROTO
	}
	le := binary.LittleEndian
	if le.Uint32(b[16:]) != tcpChecksum(b) {
		return tcpSegment{}, kbase.EPROTO // corrupted in flight: drop
	}
	return tcpSegment{
		SrcPort: le.Uint16(b[0:]),
		DstPort: le.Uint16(b[2:]),
		Seq:     le.Uint32(b[4:]),
		Ack:     le.Uint32(b[8:]),
		Flags:   b[12],
		Wnd:     le.Uint16(b[14:]),
		Payload: b[tcpHeaderLen:],
	}, kbase.EOK
}

// udpDatagram is a parsed UDP-lite datagram.
type udpDatagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// marshal writes the datagram into b, which is exactly
// udpHeaderLen+len(d.Payload) bytes.
func (d *udpDatagram) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], d.SrcPort)
	le.PutUint16(b[2:], d.DstPort)
	le.PutUint16(b[4:], uint16(len(d.Payload)))
	copy(b[udpHeaderLen:], d.Payload)
}

func parseUDP(b []byte) (udpDatagram, kbase.Errno) {
	if len(b) < udpHeaderLen {
		kbase.Oops(kbase.OopsOutOfBounds, "net", "runt UDP datagram: %d bytes", len(b))
		return udpDatagram{}, kbase.EPROTO
	}
	le := binary.LittleEndian
	n := int(le.Uint16(b[4:]))
	if udpHeaderLen+n > len(b) {
		kbase.Oops(kbase.OopsOutOfBounds, "net", "UDP length %d of %d", n, len(b)-udpHeaderLen)
		return udpDatagram{}, kbase.EPROTO
	}
	return udpDatagram{
		SrcPort: le.Uint16(b[0:]),
		DstPort: le.Uint16(b[2:]),
		Payload: b[udpHeaderLen : udpHeaderLen+n],
	}, kbase.EOK
}
