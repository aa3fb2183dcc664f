package net

import (
	"bytes"
	"testing"
	"testing/quick"

	"safelinux/internal/linuxlike/kbase"
)

// pair builds two linked hosts.
func pair(t *testing.T, seed uint64, lp LinkParams) (*Sim, *Host, *Host) {
	t.Helper()
	sim := NewSim(seed)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, lp)
	return sim, a, b
}

// connectPair establishes a TCP connection and returns (client, server).
func connectPair(t *testing.T, sim *Sim, a, b *Host, port uint16) (*Socket, *Socket) {
	t.Helper()
	l, err := b.ListenTCP(port)
	if err != kbase.EOK {
		t.Fatalf("ListenTCP: %v", err)
	}
	c, err := a.ConnectTCP(b.Addr(), port)
	if err != kbase.EOK {
		t.Fatalf("ConnectTCP: %v", err)
	}
	var srv *Socket
	ok := sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 2000)
	if !ok {
		t.Fatalf("handshake never completed: client=%s", c.State())
	}
	return c, srv
}

func TestHandshake(t *testing.T) {
	sim, a, b := pair(t, 1, LinkParams{Delay: 2})
	c, srv := connectPair(t, sim, a, b, 80)
	if !c.Established() || !srv.Established() {
		t.Fatalf("states: client=%s server=%s", c.State(), srv.State())
	}
}

func TestDataTransferReliable(t *testing.T) {
	sim, a, b := pair(t, 2, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	payload := make([]byte, 8000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := c.Send(payload); err != kbase.EOK {
		t.Fatalf("Send: %v", err)
	}
	var got []byte
	buf := make([]byte, 1024)
	sim.RunUntil(func() bool {
		for {
			n, e := srv.Recv(buf)
			if n == 0 {
				break
			}
			_ = e
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, 5000)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer mismatch: got %d bytes want %d", len(got), len(payload))
	}
}

func TestDataSurvivesLossAndReorder(t *testing.T) {
	sim, a, b := pair(t, 3, LinkParams{Delay: 1, LossProb: 0.15, DupProb: 0.05, ReorderJitter: 4})
	c, srv := connectPair(t, sim, a, b, 80)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
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
	if !ok {
		t.Fatalf("lossy transfer stalled at %d/%d bytes", len(got), len(payload))
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("lossy transfer corrupted")
	}
	tcb := c.private.(*TCB)
	if tcb.Retransmits == 0 {
		t.Fatalf("loss model never triggered retransmission")
	}
}

func TestEcho(t *testing.T) {
	sim, a, b := pair(t, 4, LinkParams{Delay: 1, LossProb: 0.05})
	c, srv := connectPair(t, sim, a, b, 7)
	msg := []byte("ping pong protocol")
	c.Send(msg)
	var reply []byte
	buf := make([]byte, 256)
	ok := sim.RunUntil(func() bool {
		if n, _ := srv.Recv(buf); n > 0 {
			srv.Send(buf[:n]) // echo
		}
		if n, _ := c.Recv(buf); n > 0 {
			reply = append(reply, buf[:n]...)
		}
		return len(reply) >= len(msg)
	}, 20000)
	if !ok || !bytes.Equal(reply, msg) {
		t.Fatalf("echo = %q ok=%v", reply, ok)
	}
}

func TestOrderlyClose(t *testing.T) {
	sim, a, b := pair(t, 5, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	c.Send([]byte("bye"))
	c.Close()
	buf := make([]byte, 64)
	var got []byte
	var eof bool
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
		t.Fatalf("got %q eof=%v", got, eof)
	}
	srv.Close()
	ok := sim.RunUntil(func() bool { return c.Closed() && srv.Closed() }, 5000)
	if !ok {
		t.Fatalf("close never completed: c=%s srv=%s", c.State(), srv.State())
	}
	// Send after close fails.
	if err := c.Send([]byte("x")); err != kbase.ENOTCONN && err != kbase.EPIPE {
		t.Fatalf("send after close: %v", err)
	}
}

func TestConnectToClosedPortTimesOut(t *testing.T) {
	sim, a, b := pair(t, 6, LinkParams{Delay: 1})
	c, _ := a.ConnectTCP(b.Addr(), 9999)
	ok := sim.RunUntil(func() bool { return c.Closed() }, 2_000_000)
	if !ok {
		t.Fatalf("SYN to closed port never gave up: %s", c.State())
	}
	tcb := c.private.(*TCB)
	if tcb.ResetReason == "" {
		t.Fatalf("no reset reason recorded")
	}
}

func TestUDPDatagrams(t *testing.T) {
	sim, a, b := pair(t, 7, LinkParams{Delay: 1})
	srv, err := b.BindUDP(53)
	if err != kbase.EOK {
		t.Fatalf("BindUDP: %v", err)
	}
	cli, _ := a.BindUDP(0)
	cli.SendTo(b.Addr(), 53, []byte("query"))
	var got []byte
	var from Addr
	var fromPort uint16
	sim.RunUntil(func() bool {
		buf := make([]byte, 64)
		n, f, fp, e := srv.RecvFrom(buf)
		if e == kbase.EOK && n > 0 {
			got, from, fromPort = buf[:n], f, fp
			return true
		}
		return false
	}, 100)
	if string(got) != "query" || from != a.Addr() || fromPort != cli.LocalPort {
		t.Fatalf("got %q from %d:%d", got, from, fromPort)
	}
}

func TestUDPUnreliable(t *testing.T) {
	sim, a, b := pair(t, 8, LinkParams{Delay: 1, LossProb: 0.5})
	srv, _ := b.BindUDP(53)
	cli, _ := a.BindUDP(0)
	for i := 0; i < 100; i++ {
		cli.SendTo(b.Addr(), 53, []byte{byte(i)})
	}
	sim.Run(50)
	recvd := 0
	buf := make([]byte, 8)
	for {
		n, _, _, e := srv.RecvFrom(buf)
		if e != kbase.EOK || n == 0 {
			break
		}
		recvd++
	}
	if recvd == 0 || recvd == 100 {
		t.Fatalf("loss model inert: received %d/100", recvd)
	}
}

func TestPrivateStompDetected(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	sim, a, b := pair(t, 9, LinkParams{Delay: 1})
	c, srv := connectPair(t, sim, a, b, 80)
	// Another "component" stomps the socket's private state.
	srv.private = &udpState{}
	c.Send([]byte("data"))
	sim.Run(50)
	if rec.Count(kbase.OopsTypeConfusion) == 0 {
		t.Fatalf("stomped TCB not reported as type confusion")
	}
}

func TestRuntPacketDetected(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	sim := NewSim(10)
	h := sim.AddHost(1)
	h.receive(Packet{0x01, 0x02})
	if rec.Count(kbase.OopsOutOfBounds) != 1 {
		t.Fatalf("runt packet not reported")
	}
	if h.stats.BadPacket != 1 {
		t.Fatalf("BadPacket = %d", h.stats.BadPacket)
	}
}

func TestListenPortConflict(t *testing.T) {
	sim := NewSim(11)
	h := sim.AddHost(1)
	if _, err := h.ListenTCP(80); err != kbase.EOK {
		t.Fatalf("ListenTCP: %v", err)
	}
	if _, err := h.ListenTCP(80); err != kbase.EEXIST {
		t.Fatalf("duplicate listen: %v", err)
	}
	if _, err := h.BindUDP(53); err != kbase.EOK {
		t.Fatalf("BindUDP: %v", err)
	}
	if _, err := h.BindUDP(53); err != kbase.EEXIST {
		t.Fatalf("duplicate bind: %v", err)
	}
}

func TestNoLinkReturnsENODEV(t *testing.T) {
	sim := NewSim(12)
	a := sim.AddHost(1)
	sim.AddHost(2)
	cli, _ := a.BindUDP(0)
	if err := cli.SendTo(2, 53, []byte("x")); err != kbase.ENODEV {
		t.Fatalf("send without link: %v", err)
	}
}

func TestMultipleConcurrentConnections(t *testing.T) {
	sim, a, b := pair(t, 13, LinkParams{Delay: 1, LossProb: 0.05})
	l, _ := b.ListenTCP(80)
	const N = 5
	var clients [N]*Socket
	for i := 0; i < N; i++ {
		clients[i], _ = a.ConnectTCP(b.Addr(), 80)
	}
	var servers []*Socket
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
	}, 20000)
	if !ok {
		t.Fatalf("only %d/%d connections established", len(servers), N)
	}
	// Each client sends a distinct byte; each server sees its own.
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
	}, 20000)
	if len(seen) != N {
		t.Fatalf("cross-connection delivery: %v", seen)
	}
}

// Property: the stream delivers exactly the sent bytes for arbitrary
// payloads under a lossy link.
func TestStreamIntegrityProperty(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		sim := NewSim(seed)
		a := sim.AddHost(1)
		b := sim.AddHost(2)
		sim.Link(1, 2, LinkParams{Delay: 1, LossProb: 0.1, ReorderJitter: 3})
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
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
