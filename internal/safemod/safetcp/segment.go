// Package safetcp is the safe replacement for the legacy TCP stack:
// the same transport behavior (three-way handshake, cumulative ACKs,
// retransmission with capped backoff, fast retransmit, orderly
// close), rebuilt on the roadmap's interfaces.
//
//   - Step 1 (modularity): safetcp attaches to a host through the
//     net.StreamProto modular interface; the generic socket layer no
//     longer sees any protocol state.
//   - Step 2 (type safety): every boundary is a concrete type —
//     segments parse into a validated struct via a Result, and there
//     is no `any`-typed Private field anywhere.
//   - Step 3 (ownership safety): received payloads move into the
//     connection's receive queue as owned buffers (sharing model 1);
//     Recv moves them out to the caller and frees them. The ownership
//     checker validates every transfer.
package safetcp

import (
	"encoding/binary"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safety/typedapi"
)

// Flags is the typed segment flag set (compare the legacy byte with
// masks).
type Flags struct {
	SYN, ACK, FIN, RST bool
}

func (f Flags) encode() byte {
	var b byte
	if f.SYN {
		b |= 1
	}
	if f.ACK {
		b |= 2
	}
	if f.FIN {
		b |= 4
	}
	if f.RST {
		b |= 8
	}
	return b
}

func decodeFlags(b byte) Flags {
	return Flags{SYN: b&1 != 0, ACK: b&2 != 0, FIN: b&4 != 0, RST: b&8 != 0}
}

// Segment is one validated transport segment. Construction goes
// through ParseSegment, which rejects malformed input at the boundary
// instead of letting offsets walk off the buffer.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            Flags
	Wnd              uint16 // advertised receive window (bytes)
	Payload          []byte
}

// headerLen is the wire header: ports(4) seq(4) ack(4) flags(1)
// pad(1) payloadLen(2) wnd(2) crc(4) = 22 bytes. Unlike the legacy
// format, the payload length is explicit and checksummed.
const headerLen = 22

// marshal writes the segment into b, which is exactly
// headerLen+len(s.Payload) bytes (a packet's transport window).
func (s *Segment) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], s.SrcPort)
	le.PutUint16(b[2:], s.DstPort)
	le.PutUint32(b[4:], s.Seq)
	le.PutUint32(b[8:], s.Ack)
	b[12] = s.Flags.encode()
	le.PutUint16(b[14:], uint16(len(s.Payload)))
	le.PutUint16(b[16:], s.Wnd)
	copy(b[headerLen:], s.Payload)
	le.PutUint32(b[18:], checksum(b))
}

// checksum covers everything except the crc field itself.
func checksum(b []byte) uint32 { return net.Checksum(b[:18], b[headerLen:]) }

// ParseSegment validates and decodes one wire payload. All failure
// modes return a typed error; nothing is ever interpreted from a
// buffer that did not validate.
func ParseSegment(b []byte) typedapi.Result[Segment] {
	if len(b) < headerLen {
		return typedapi.Err[Segment](kbase.EPROTO)
	}
	le := binary.LittleEndian
	payloadLen := int(le.Uint16(b[14:]))
	if headerLen+payloadLen != len(b) {
		return typedapi.Err[Segment](kbase.EPROTO)
	}
	if le.Uint32(b[18:]) != checksum(b) {
		return typedapi.Err[Segment](kbase.EPROTO)
	}
	seg := Segment{
		SrcPort: le.Uint16(b[0:]),
		DstPort: le.Uint16(b[2:]),
		Seq:     le.Uint32(b[4:]),
		Ack:     le.Uint32(b[8:]),
		Flags:   decodeFlags(b[12]),
		Wnd:     le.Uint16(b[16:]),
	}
	if payloadLen > 0 {
		seg.Payload = make([]byte, payloadLen)
		copy(seg.Payload, b[headerLen:])
	}
	return typedapi.Ok(seg)
}
