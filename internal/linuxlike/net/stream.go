package net

import "safelinux/internal/linuxlike/kbase"

// The socket-facing half of the Step-1 interface, in the spirit of
// Linux's proto_ops: what a caller of a stream socket may do, whichever
// TCP implementation carries it. StreamProto (modular.go) is the lower
// half, the packets and ticks the host hands a protocol. The legacy
// stack implements these with *Host and *Socket, safetcp with its
// *Endpoint, *Listener and *Conn, so a driver is written once against
// a StreamStack and runs on either stack; only the code that builds a
// stack on a host knows which one it is.

// Stream is one connected byte stream.
type Stream interface {
	// Send queues data behind whatever is already queued.
	Send(data []byte) kbase.Errno
	// Recv drains received bytes: (0, EOK) on a drained, peer-closed
	// stream is EOF, EAGAIN means try later, and any other errno says
	// why the stream failed.
	Recv(buf []byte) (int, kbase.Errno)
	// Close starts an orderly shutdown; queued data goes out first.
	Close() kbase.Errno
	// Established reports whether the connection is ESTABLISHED: the
	// handshake finished and neither side has started to close.
	Established() bool
	// Closed reports whether the connection is fully shut down.
	Closed() bool
	// ResetErrno is the typed reason the connection died abnormally
	// (ECONNRESET, ETIMEDOUT, ECONNREFUSED), EOK while it has not.
	ResetErrno() kbase.Errno
	// RetransmitCount is the number of segments retransmitted so far.
	RetransmitCount() uint64
}

// StreamListener accepts inbound streams on one port.
type StreamListener interface {
	// AcceptStream dequeues one established stream, or EAGAIN.
	AcceptStream() (Stream, kbase.Errno)
	Close() kbase.Errno
}

// StreamStack is one host's stream transport.
type StreamStack interface {
	// ListenStream opens a listener on port.
	ListenStream(port uint16) (StreamListener, kbase.Errno)
	// DialStream opens a stream to raddr:rport; the handshake
	// completes as the simulation steps.
	DialStream(raddr Addr, rport uint16) (Stream, kbase.Errno)
	// TimerCount is the number of armed connection timers.
	TimerCount() int
}

// ListenStream implements StreamStack with ListenTCP.
func (h *Host) ListenStream(port uint16) (StreamListener, kbase.Errno) {
	s, err := h.ListenTCP(port)
	if err != kbase.EOK {
		return nil, err
	}
	return s, kbase.EOK
}

// DialStream implements StreamStack with ConnectTCP.
func (h *Host) DialStream(raddr Addr, rport uint16) (Stream, kbase.Errno) {
	s, err := h.ConnectTCP(raddr, rport)
	if err != kbase.EOK {
		return nil, err
	}
	return s, kbase.EOK
}

// AcceptStream implements StreamListener with Accept.
func (s *Socket) AcceptStream() (Stream, kbase.Errno) {
	c, err := s.Accept()
	if err != kbase.EOK {
		return nil, err
	}
	return c, kbase.EOK
}

// ResetErrno implements Stream; EOK for a socket that is not TCP.
func (s *Socket) ResetErrno() kbase.Errno {
	if t := s.tcb(); t != nil {
		return t.ResetErr
	}
	return kbase.EOK
}

// RetransmitCount implements Stream; 0 for a socket that is not TCP.
func (s *Socket) RetransmitCount() uint64 {
	if t := s.tcb(); t != nil {
		return t.Retransmits
	}
	return 0
}
