package net

import (
	"testing"

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

// TestConnectToClosedPortTimesOut checks the reason the TCB records
// when its SYN goes unanswered; faultinject's TestStreamConnectClosedPort
// checks the typed errno on both stacks.
func TestConnectToClosedPortTimesOut(t *testing.T) {
	sim, a, b := pair(t, 6, LinkParams{Delay: 1})
	c, _ := a.ConnectTCP(b.Addr(), 9999)
	if !sim.RunUntil(c.Closed, 100000) {
		t.Fatalf("SYN to closed port never gave up: %s", c.State())
	}
	if r := c.private.(*TCB).ResetReason; r != "retransmission limit" {
		t.Fatalf("reset reason %q", r)
	}
}

func TestUDPDatagrams(t *testing.T) {
	sim, a, b := pair(t, 7, LinkParams{Delay: 1})
	srv, err := b.BindUDP(53)
	if err != kbase.EOK {
		t.Fatalf("BindUDP: %v", err)
	}
	if _, err := b.BindUDP(53); err != kbase.EEXIST {
		t.Fatalf("duplicate bind: %v", err)
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

func TestNoLinkReturnsENODEV(t *testing.T) {
	sim := NewSim(12)
	a := sim.AddHost(1)
	sim.AddHost(2)
	cli, _ := a.BindUDP(0)
	if err := cli.SendTo(2, 53, []byte("x")); err != kbase.ENODEV {
		t.Fatalf("send without link: %v", err)
	}
}
