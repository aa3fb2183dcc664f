package safetcp

import (
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
)

func TestSafeIdleConnsHoldNoTimers(t *testing.T) {
	// An idle established connection must be free: no armed timer, so
	// a tick touches nothing. This is the structural property behind
	// the C1M per-tick cost reduction.
	sim, a, b := pair(t, 90, net.LinkParams{Delay: 1})
	l, err := b.Listen(80)
	if err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	conns := make([]*Conn, 50)
	for i := range conns {
		c, err := a.Connect(2, 80)
		if err != kbase.EOK {
			t.Fatalf("Connect %d: %v", i, err)
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
		t.Fatal("connections did not establish")
	}
	sim.Run(300) // drain handshake timers
	if n := a.TimerCount(); n != 0 {
		t.Fatalf("idle client endpoint holds %d armed timers", n)
	}
	if n := b.TimerCount(); n != 0 {
		t.Fatalf("idle server endpoint holds %d armed timers", n)
	}
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
	// Every established child waits in the backlog, and nothing else.
	for i := range conns {
		if _, err := l.Accept(); err != kbase.EOK {
			t.Fatalf("Accept %d of %d: %v", i, len(conns), err)
		}
	}
	if _, err := l.Accept(); err != kbase.EAGAIN {
		t.Fatalf("Accept past %d children = %v, want EAGAIN", len(conns), err)
	}
}

func TestSafeEphemeralExhaustionTyped(t *testing.T) {
	sim := net.NewSim(91)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1})
	epA := Attach(a, nil)
	epB := Attach(b, nil)
	if _, err := epB.Listen(80); err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	for i := 0; i < 16384; i++ {
		if _, err := epA.Connect(2, 80); err != kbase.EOK {
			t.Fatalf("Connect %d: %v", i, err)
		}
	}
	if _, err := epA.Connect(2, 80); err != kbase.EADDRINUSE {
		t.Fatalf("exhausted endpoint returned %v, want EADDRINUSE", err)
	}
	if epA.FreePorts() != 0 {
		t.Fatalf("free ports = %d at exhaustion", epA.FreePorts())
	}
}

func TestSafePortRecyclingUnderChurn(t *testing.T) {
	// 5 waves x 4000 = 20000 > 16384 total connections: ports must
	// recycle as closed connections reap.
	sim, a, b := pair(t, 92, net.LinkParams{Delay: 1})
	l, err := b.Listen(80)
	if err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	const waves, perWave = 5, 4000
	for w := 0; w < waves; w++ {
		conns := make([]*Conn, perWave)
		for i := range conns {
			c, err := a.Connect(2, 80)
			if err != kbase.EOK {
				t.Fatalf("wave %d connect %d: %v (free=%d)", w, i, err, a.FreePorts())
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
		}, 3000) {
			t.Fatalf("wave %d did not establish", w)
		}
		sim.Run(5) // let the final handshake ACKs land
		var children []*Conn
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
		}, 3000) {
			t.Fatalf("wave %d did not close", w)
		}
		sim.Run(TimeWaitJiffies + 8) // drain TIME_WAIT so ports free
	}
	if free := a.FreePorts(); free != 16384 {
		t.Fatalf("after churn, %d ports free, want all 16384", free)
	}
	if n := a.ConnCount(); n != 0 {
		t.Fatalf("after churn, %d connections still in demux", n)
	}
}

func TestSafeWheelPreservesRetransmitTiming(t *testing.T) {
	// First-SYN loss retransmits exactly at InitialRTO — wheel-driven
	// timing must match the old every-jiffy scan to the jiffy.
	sim := net.NewSim(94)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1})
	epA := Attach(a, nil)
	epB := Attach(b, nil)
	sim.PartitionOneWay(1, 2)
	c, err := epA.Connect(2, 80)
	if err != kbase.EOK {
		t.Fatalf("Connect: %v", err)
	}
	sim.Run(InitialRTO - 1)
	if c.Retransmits != 0 {
		t.Fatalf("retransmitted %d times before the RTO deadline", c.Retransmits)
	}
	sim.Run(2)
	if c.Retransmits != 1 {
		t.Fatalf("retransmits = %d one jiffy past the deadline, want exactly 1", c.Retransmits)
	}
	sim.Heal(1, 2)
	if _, err := epB.Listen(80); err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	if !sim.RunUntil(c.Established, 1500) {
		t.Fatal("connection never recovered after heal")
	}
}
