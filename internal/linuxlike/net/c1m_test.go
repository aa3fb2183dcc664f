package net

import (
	"testing"

	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

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
