package safetcp

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safety/own"
)

func patterned(n int, k byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*k + k
	}
	return p
}

func pump(t *testing.T, sim *net.Sim, src, dst *Conn, payload []byte, limit int) []byte {
	t.Helper()
	if err := src.Send(payload); err != kbase.EOK {
		t.Fatalf("Send: %v", err)
	}
	var got []byte
	buf := make([]byte, 2048)
	sim.RunUntil(func() bool {
		for {
			n, _ := dst.Recv(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, limit)
	return got
}

func TestSafeOutOfOrderReassembly(t *testing.T) {
	sim, a, b := pair(t, 51, net.LinkParams{Delay: 1, ReorderJitter: 40})
	c, srv := connect(t, sim, a, b, 80)
	payload := patterned(16384, 7)
	got := pump(t, sim, c, srv, payload, 60000)
	if !bytes.Equal(got, payload) {
		t.Fatalf("reordered transfer corrupted: %d/%d", len(got), len(payload))
	}
}

func TestSafeTransferSurvivesCorruption(t *testing.T) {
	sim, a, b := pair(t, 52, net.LinkParams{Delay: 1, CorruptProb: 0.15})
	c, srv := connect(t, sim, a, b, 80)
	payload := patterned(12000, 17)
	got := pump(t, sim, c, srv, payload, 120000)
	if !bytes.Equal(got, payload) {
		t.Fatalf("corruption leaked: %d/%d", len(got), len(payload))
	}
	if sim.Stats().Corrupted == 0 {
		t.Fatalf("corruption model inert")
	}
}

func TestSafeSimultaneousClose(t *testing.T) {
	sim, a, b := pair(t, 53, net.LinkParams{Delay: 2})
	c, srv := connect(t, sim, a, b, 80)
	c.Close()
	srv.Close()
	sawClosing := false
	ok := sim.RunUntil(func() bool {
		if c.State() == Closing || srv.State() == Closing {
			sawClosing = true
		}
		return c.Closed() && srv.Closed()
	}, 5000)
	if !ok {
		t.Fatalf("simultaneous close stuck: c=%s srv=%s", c.State(), srv.State())
	}
	if !sawClosing {
		t.Fatalf("simultaneous close never passed through Closing")
	}
}

func TestSafeTimeWait(t *testing.T) {
	sim, a, b := pair(t, 54, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	c.Close()
	srv.Close()
	sawTimeWait := false
	var entered uint64
	ok := sim.RunUntil(func() bool {
		if c.State() == TimeWait && !sawTimeWait {
			sawTimeWait = true
			entered = sim.Clock().Now()
		}
		return c.Closed() && srv.Closed()
	}, 5000)
	if !ok || !sawTimeWait {
		t.Fatalf("TIME_WAIT missing: ok=%v saw=%v c=%s", ok, sawTimeWait, c.State())
	}
	if held := sim.Clock().Now() - entered; held < TimeWaitJiffies {
		t.Fatalf("TIME_WAIT held %d jiffies, want >= %d", held, TimeWaitJiffies)
	}
}

func TestSafeRecvAfterFinDrains(t *testing.T) {
	sim, a, b := pair(t, 55, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	payload := patterned(2000, 9)
	c.Send(payload)
	c.Close()
	sim.RunUntil(func() bool { return srv.peerFIN }, 5000)
	var got []byte
	buf := make([]byte, 512)
	for {
		n, e := srv.Recv(buf)
		if n > 0 {
			got = append(got, buf[:n]...)
			continue
		}
		if e != kbase.EOK {
			t.Fatalf("recv after FIN: %v", e)
		}
		break
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("buffered data truncated at FIN: %d/%d", len(got), len(payload))
	}
}

func TestSafeResetOnRetryExhaustion(t *testing.T) {
	sim, a, b := pair(t, 56, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	sim.Partition(1, 2)
	c.Send([]byte("doomed"))
	ok := sim.RunUntil(func() bool { return c.Closed() }, 100000)
	if !ok {
		t.Fatalf("partitioned sender never gave up: %s", c.State())
	}
	if c.ResetErr != kbase.ETIMEDOUT {
		t.Fatalf("ResetErr = %v, want ETIMEDOUT", c.ResetErr)
	}
	if c.TxErrors == 0 || a.stats.TxErrors == 0 {
		t.Fatalf("partitioned transmits not surfaced: conn=%d ep=%d",
			c.TxErrors, a.stats.TxErrors)
	}
	if err := c.Send([]byte("x")); err != kbase.ETIMEDOUT {
		t.Fatalf("send after reset: %v", err)
	}
	// Drain the undelivered receive side so the ownership checker
	// sees no leaks at teardown.
	c.drainRecvQ()
	srv.drainRecvQ()
}

func TestSafeFlowControlBackpressure(t *testing.T) {
	sim := net.NewSim(57)
	hA := sim.AddHost(1)
	hB := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1})
	ck := own.NewChecker(own.PolicyRecord)
	a := Attach(hA, ck)
	b := Attach(hB, ck)
	b.SetTuning(Tuning{RecvWindow: 1024})
	c, srv := connect(t, sim, a, b, 80)
	payload := patterned(10000, 11)
	c.Send(payload)
	sim.Run(2000)
	if buffered := srv.Buffered(); buffered > 1024+MSS {
		t.Fatalf("sender overran the receive window: %d buffered", buffered)
	}
	if len(c.sendBuf) == 0 {
		t.Fatalf("sender drained through a closed window")
	}
	var got []byte
	buf := make([]byte, 512)
	ok := sim.RunUntil(func() bool {
		if n, _ := srv.Recv(buf); n > 0 {
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, 120000)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("windowed transfer: %d/%d ok=%v", len(got), len(payload), ok)
	}
	if c.ZeroWndProbes == 0 {
		t.Fatalf("closed window never probed")
	}
}

func TestSafeAdaptiveRTOBeatsFixed(t *testing.T) {
	run := func(fixed bool) uint64 {
		sim := net.NewSim(58)
		hA := sim.AddHost(1)
		hB := sim.AddHost(2)
		sim.Link(1, 2, net.LinkParams{Delay: 10})
		ck := own.NewChecker(own.PolicyRecord)
		a := Attach(hA, ck)
		b := Attach(hB, ck)
		a.SetTuning(Tuning{FixedRTO: fixed})
		b.SetTuning(Tuning{FixedRTO: fixed})
		c, srv := connect(t, sim, a, b, 80)
		payload := patterned(8192, 31)
		got := pump(t, sim, c, srv, payload, 60000)
		if !bytes.Equal(got, payload) {
			t.Fatalf("fixed=%v transfer: %d/%d", fixed, len(got), len(payload))
		}
		return c.Retransmits
	}
	adaptive := run(false)
	fixed := run(true)
	if adaptive >= fixed {
		t.Fatalf("adaptive RTO (%d retransmits) not better than fixed (%d) on a 20-jiffy-RTT path",
			adaptive, fixed)
	}
}

func TestSafePartitionHealRecovers(t *testing.T) {
	sim, a, b := pair(t, 59, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	payload := patterned(6000, 19)
	c.Send(payload)
	sim.Run(5)
	sim.Partition(1, 2)
	sim.Run(60)
	sim.Heal(1, 2)
	var got []byte
	buf := make([]byte, 512)
	ok := sim.RunUntil(func() bool {
		if n, _ := srv.Recv(buf); n > 0 {
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(payload)
	}, 60000)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed transfer: %d/%d ok=%v", len(got), len(payload), ok)
	}
}

func TestSafeReapClosedConns(t *testing.T) {
	sim, a, b := pair(t, 60, net.LinkParams{Delay: 1})
	c, srv := connect(t, sim, a, b, 80)
	c.Close()
	srv.Close()
	ok := sim.RunUntil(func() bool {
		return a.ConnCount() == 0 && b.ConnCount() == 0
	}, 10000)
	if !ok {
		t.Fatalf("closed connections not reaped: a=%d b=%d", a.ConnCount(), b.ConnCount())
	}
	if !c.Closed() || !srv.Closed() {
		t.Fatalf("reaped conns should read Closed: c=%s srv=%s", c.State(), srv.State())
	}
}
