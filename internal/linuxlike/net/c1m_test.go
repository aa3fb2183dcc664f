package net

import (
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

// establishPair builds a linked client/server sim with one listener.
func establishPair(t *testing.T) (*Sim, *Host, *Host, *Socket) {
	t.Helper()
	sim := NewSim(1)
	client := sim.AddHost(1)
	server := sim.AddHost(2)
	sim.Link(1, 2, LinkParams{Delay: 1})
	l, err := server.ListenTCP(80)
	if err != kbase.EOK {
		t.Fatalf("listen: %v", err)
	}
	return sim, client, server, l
}

func TestSteadyTickAllocFree(t *testing.T) {
	// The satellite assertion: once connections go idle, a simulation
	// step allocates nothing — no per-tick slices, no sort, no timer
	// walk. Idle connections hold no armed timer at all.
	sim, client, _, _ := establishPair(t)
	conns := make([]*Socket, 100)
	for i := range conns {
		c, err := client.ConnectTCP(2, 80)
		if err != kbase.EOK {
			t.Fatalf("connect %d: %v", i, err)
		}
		conns[i] = c
	}
	if !sim.RunUntil(func() bool {
		for _, c := range conns {
			if !c.Established() {
				return false
			}
		}
		return true
	}, 1000) {
		t.Fatal("connections did not establish")
	}
	sim.Run(300) // drain handshake ACK timers and stray segments
	if n := client.TimerCount(); n != 0 {
		t.Fatalf("idle client still holds %d armed timers", n)
	}
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEphemeralExhaustionTyped(t *testing.T) {
	// 16384 concurrent outgoing connections exhaust the ephemeral
	// space; the 16385th fails fast with EADDRINUSE instead of the old
	// infinite next-port scan.
	_, client, _, _ := establishPair(t)
	for i := 0; i < 16384; i++ {
		if _, err := client.ConnectTCP(2, 80); err != kbase.EOK {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	if _, err := client.ConnectTCP(2, 80); err != kbase.EADDRINUSE {
		t.Fatalf("exhausted host returned %v, want EADDRINUSE", err)
	}
	if client.FreePorts() != 0 {
		t.Fatalf("free ports = %d at exhaustion", client.FreePorts())
	}
}

func TestPortRecyclingUnderChurn(t *testing.T) {
	// More total connections than the port space holds, in waves that
	// fully close between rounds: ports must recycle. 6 waves x 3000 =
	// 18000 > 16384.
	sim, client, _, l := establishPair(t)
	const waves, perWave = 6, 3000
	for w := 0; w < waves; w++ {
		conns := make([]*Socket, perWave)
		for i := range conns {
			c, err := client.ConnectTCP(2, 80)
			if err != kbase.EOK {
				t.Fatalf("wave %d connect %d: %v (free=%d)", w, i, err, client.FreePorts())
			}
			conns[i] = c
		}
		if !sim.RunUntil(func() bool {
			for _, c := range conns {
				if !c.Established() {
					return false
				}
			}
			return true
		}, 2000) {
			t.Fatalf("wave %d did not establish", w)
		}
		sim.Run(5) // let the final handshake ACKs reach the listener
		var children []*Socket
		for {
			c, err := l.Accept()
			if err != kbase.EOK {
				break
			}
			children = append(children, c)
		}
		if len(children) != perWave {
			t.Fatalf("wave %d accepted %d of %d", w, len(children), perWave)
		}
		for _, c := range conns {
			c.Close()
		}
		for _, c := range children {
			c.Close()
		}
		if !sim.RunUntil(func() bool {
			for _, c := range conns {
				if !c.Closed() {
					return false
				}
			}
			return true
		}, 2000) {
			t.Fatalf("wave %d did not close", w)
		}
		// Let TIME_WAIT drain fully so the wave's ports free.
		sim.Run(TimeWaitJiffies + 8)
	}
	if free := client.FreePorts(); free != 16384 {
		t.Fatalf("after churn, %d ports free, want all 16384", free)
	}
	if n := client.ConnCount(); n != 0 {
		t.Fatalf("after churn, %d connections still in demux", n)
	}
}

func TestWheelDrivesRetransmissionTiming(t *testing.T) {
	// A lossy first SYN must retransmit at exactly the old InitialRTO
	// deadline — the wheel preserves per-jiffy timing, which the
	// differential sweep depends on.
	sim := NewSim(7)
	client := sim.AddHost(1)
	server := sim.AddHost(2)
	sim.Link(1, 2, LinkParams{Delay: 1})
	sim.PartitionOneWay(1, 2) // SYN will be refused by the link
	c, err := client.ConnectTCP(2, 80)
	if err != kbase.EOK {
		t.Fatalf("connect: %v", err)
	}
	tcb, _ := c.TCPInfo()
	sim.Run(InitialRTO - 1)
	if tcb.Retransmits != 0 {
		t.Fatalf("retransmitted %d times before the RTO deadline", tcb.Retransmits)
	}
	sim.Run(2)
	if tcb.Retransmits != 1 {
		t.Fatalf("retransmits = %d one jiffy past the deadline, want exactly 1", tcb.Retransmits)
	}
	sim.Heal(1, 2)
	server.ListenTCP(80)
	if !sim.RunUntil(c.Established, 600) {
		t.Fatal("connection never recovered after heal")
	}
}

// TestGatedReceiveAndTickAllocFree pins the net gate's crossings: with
// a gate installed on both hosts, delivering a pure ACK to an
// established connection and ticking the host's timers allocate
// nothing.
func TestGatedReceiveAndTickAllocFree(t *testing.T) {
	sim, a, b := pair(t, 5, LinkParams{Delay: 1})
	g := gate.New("net", nil)
	a.SetGate(g)
	b.SetGate(g)
	c, _ := connectPair(t, sim, a, b, 80)
	sim.Run(300) // drain handshake ACK timers and stray segments
	c.private.(*TCB).sendAck()
	ack := sim.flight[len(sim.flight)-1].pkt
	sim.Run(5)
	entered := ktrace.Read(g.CollectMetrics, "entered")
	if allocs := testing.AllocsPerRun(200, func() {
		b.receive(ack)
		b.tick(sim.clock.Now())
	}); allocs != 0 {
		t.Fatalf("gated receive+tick: %.1f allocs/op, want 0", allocs)
	}
	if got := ktrace.Read(g.CollectMetrics, "entered") - entered; got < 400 {
		t.Fatalf("%d gate entries for 201 receive+tick pairs", got)
	}
	for _, name := range []string{"contained", "bad_packets", "no_socket"} {
		if n := ktrace.Read(b.CollectMetrics, name); n != 0 {
			t.Fatalf("%s = %d: the ACK did not reach its connection", name, n)
		}
	}
}
