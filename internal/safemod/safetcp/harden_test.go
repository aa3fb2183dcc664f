package safetcp

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
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

// The stream suite (faultinject) checks backpressure, zero-window
// probing and retry exhaustion through the stream surface on both
// stacks; this one reads the per-connection counter behind the last.

func TestSafeTxErrorsSurfaced(t *testing.T) {
	sim, a, b := pair(t, 56, net.LinkParams{Delay: 1})
	c, _ := connect(t, sim, a, b, 80)
	sim.Partition(1, 2)
	c.Send([]byte("into the void"))
	sim.Run(100)
	if c.TxErrors == 0 || a.stats.TxErrors == 0 {
		t.Fatalf("partitioned transmits not surfaced: conn=%d ep=%d", c.TxErrors, a.stats.TxErrors)
	}
}
