package faultinject

import (
	"bytes"
	"testing"
	"testing/quick"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/own"
)

// The stream conformance suite: each behaviour below is written once
// against net.Stream/StreamStack and runs as a "legacy" and a "safe"
// subtest, so both TCP stacks are held to one contract. It observes
// the stacks only through that surface, the Sim, and the counters their
// collectors emit; the few checks that need TCB internals (state
// names, peerFIN, ResetReason, the ACK send path, the legacy RTO
// estimate) stay in short per-stack tests in net and safetcp. The transport constants used
// here (MSS, InitialRTO, TimeWaitJiffies) are the same in both stacks.

// tuning is what a test sets on the stack under test: the receive
// window its connections advertise (0 keeps the default) and the fixed
// 16-jiffy RTO in place of the adaptive one.
type tuning struct {
	recvWindow int
	fixedRTO   bool
}

// stackCase is one TCP stack under test. build returns the builder
// that puts the stack on a host with the given tuning.
type stackCase struct {
	name  string
	build func(t testing.TB, tu tuning) func(*net.Host) net.StreamStack
}

var stackCases = []stackCase{
	{"legacy", func(_ testing.TB, tu tuning) func(*net.Host) net.StreamStack {
		return func(h *net.Host) net.StreamStack {
			h.SetTCPTuning(net.TCPTuning{RecvWindow: tu.recvWindow, FixedRTO: tu.fixedRTO})
			return legacyStack(h)
		}
	}},
	// Every safe subtest ends with a check that the endpoints' shared
	// ownership checker saw no violation.
	{"safe", func(t testing.TB, tu tuning) func(*net.Host) net.StreamStack {
		ck := own.NewChecker(own.PolicyRecord)
		t.Cleanup(func() {
			if v := ck.Violations(); len(v) != 0 {
				t.Errorf("ownership violations: %v", v)
			}
		})
		return func(h *net.Host) net.StreamStack {
			ep := safetcp.Attach(h, ck)
			ep.SetTuning(safetcp.Tuning{RecvWindow: tu.recvWindow, FixedRTO: tu.fixedRTO})
			return ep
		}
	}},
}

// onBothStacks runs body as one subtest per stack.
func onBothStacks(t *testing.T, body func(t *testing.T, sc stackCase)) {
	for _, sc := range stackCases {
		t.Run(sc.name, func(t *testing.T) { body(t, sc) })
	}
}

// link is two hosts, addresses 1 and 2, joined by one link, with the
// stack under test on each.
type link struct {
	sim    *net.Sim
	ha, hb *net.Host
	a, b   net.StreamStack
	buf    []byte
}

func newLink(stackOf func(*net.Host) net.StreamStack, seed uint64, lp net.LinkParams) *link {
	sim := net.NewSim(seed)
	ha, hb := sim.AddHost(1), sim.AddHost(2)
	sim.Link(1, 2, lp)
	return &link{sim: sim, ha: ha, hb: hb, a: stackOf(ha), b: stackOf(hb), buf: make([]byte, 2048)}
}

// link builds a link with the stack's default tuning.
func (sc stackCase) link(t testing.TB, seed uint64, lp net.LinkParams) *link {
	return newLink(sc.build(t, tuning{}), seed, lp)
}

// dial listens on host 2's port, dials it from host 1, and steps until
// the server has accepted and the client is established. It reports
// false if that takes more than limit steps.
func (l *link) dial(port uint16, limit int) (cli, srv net.Stream, ok bool) {
	lst, err := l.b.ListenStream(port)
	if err != kbase.EOK {
		return nil, nil, false
	}
	cli, err = l.a.DialStream(2, port)
	if err != kbase.EOK {
		return nil, nil, false
	}
	ok = l.sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = lst.AcceptStream()
		}
		return srv != nil && cli.Established()
	}, limit)
	return cli, srv, ok
}

// connect is dial that fails the test on a stalled handshake.
func (l *link) connect(t testing.TB, port uint16) (cli, srv net.Stream) {
	t.Helper()
	cli, srv, ok := l.dial(port, 2000)
	if !ok {
		t.Fatalf("handshake on port %d never completed", port)
	}
	return cli, srv
}

// drain appends everything s has ready to got.
func (l *link) drain(s net.Stream, got []byte) []byte {
	for {
		n, _ := s.Recv(l.buf)
		if n == 0 {
			return got
		}
		got = append(got, l.buf[:n]...)
	}
}

// readN steps until dst has read n bytes on top of got, or limit steps
// pass, and returns what it has read.
func (l *link) readN(dst net.Stream, got []byte, n, limit int) []byte {
	l.sim.RunUntil(func() bool {
		got = l.drain(dst, got)
		return len(got) >= n
	}, limit)
	return got
}

// transfer sends payload from src and returns what dst read of it
// within limit steps.
func (l *link) transfer(t testing.TB, src, dst net.Stream, payload []byte, limit int) []byte {
	t.Helper()
	if err := src.Send(payload); err != kbase.EOK {
		t.Fatalf("Send: %v", err)
	}
	return l.readN(dst, nil, len(payload), limit)
}

// readEOF steps until s reports a clean EOF and returns the bytes read
// before it, or fails the test after limit steps.
func (l *link) readEOF(t testing.TB, s net.Stream, limit int) []byte {
	t.Helper()
	var got []byte
	eof := false
	l.sim.RunUntil(func() bool {
		n, e := s.Recv(l.buf)
		got = append(got, l.buf[:n]...)
		eof = n == 0 && e == kbase.EOK
		return eof
	}, limit)
	if !eof {
		t.Fatalf("no EOF after %d bytes", len(got))
	}
	return got
}

func patterned(n int, k byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*k + k
	}
	return p
}

// every returns a condition that holds once pred holds for each stream.
func every(ss []net.Stream, pred func(net.Stream) bool) func() bool {
	return func() bool {
		for _, s := range ss {
			if !pred(s) {
				return false
			}
		}
		return true
	}
}

// metric reads one counter from the stack's own collector: the host's
// for the legacy stack, the endpoint's for safetcp.
func metric(s net.StreamStack, name string) uint64 {
	c := s.(interface {
		CollectMetrics(emit func(string, uint64))
	})
	return ktrace.Read(c.CollectMetrics, name)
}

// refused is how many delivered packets a host turned away as
// malformed: the host's IP-level count, plus the segments safetcp
// rejects itself (the legacy stack counts those on the host).
func refused(h *net.Host, s net.StreamStack) uint64 {
	n := ktrace.Read(h.CollectMetrics, "bad_packets")
	if ep, ok := s.(*safetcp.Endpoint); ok {
		n += ktrace.Read(ep.CollectMetrics, "bad_segments")
	}
	return n
}

func TestStreamHandshake(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 1, net.LinkParams{Delay: 2})
		c, srv := l.connect(t, 80)
		if !c.Established() || !srv.Established() || c.Closed() || srv.Closed() {
			t.Fatalf("after the handshake: client established=%v server established=%v",
				c.Established(), srv.Established())
		}
	})
}

func TestStreamReliableTransfer(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 1, net.LinkParams{Delay: 1})
		c, srv := l.connect(t, 80)
		payload := patterned(10000, 13)
		if got := l.transfer(t, c, srv, payload, 20000); !bytes.Equal(got, payload) {
			t.Fatalf("transfer: got %d of %d bytes", len(got), len(payload))
		}
	})
}

func TestStreamTransferUnderLoss(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 2, net.LinkParams{Delay: 1, LossProb: 0.15, DupProb: 0.05, ReorderJitter: 4})
		c, srv := l.connect(t, 80)
		payload := patterned(20000, 7)
		if got := l.transfer(t, c, srv, payload, 60000); !bytes.Equal(got, payload) {
			t.Fatalf("lossy transfer: got %d of %d bytes", len(got), len(payload))
		}
		if c.RetransmitCount() == 0 {
			t.Fatalf("loss never triggered a retransmission")
		}
	})
}

func TestStreamEcho(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 4, net.LinkParams{Delay: 1, LossProb: 0.05})
		c, srv := l.connect(t, 7)
		msg := []byte("ping pong protocol")
		if err := c.Send(msg); err != kbase.EOK {
			t.Fatalf("Send: %v", err)
		}
		var reply []byte
		ok := l.sim.RunUntil(func() bool {
			if n, _ := srv.Recv(l.buf); n > 0 {
				srv.Send(l.buf[:n])
			}
			reply = l.drain(c, reply)
			return len(reply) >= len(msg)
		}, 20000)
		if !ok || !bytes.Equal(reply, msg) {
			t.Fatalf("echo = %q ok=%v", reply, ok)
		}
	})
}

func TestStreamOrderlyClose(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 5, net.LinkParams{Delay: 1})
		c, srv := l.connect(t, 80)
		c.Send([]byte("bye"))
		c.Close()
		if got := l.readEOF(t, srv, 5000); string(got) != "bye" {
			t.Fatalf("read %q before EOF", got)
		}
		srv.Close()
		if !l.sim.RunUntil(func() bool { return c.Closed() && srv.Closed() }, 5000) {
			t.Fatalf("shutdown stalled: client closed=%v server closed=%v", c.Closed(), srv.Closed())
		}
		if err := c.Send([]byte("x")); err != kbase.ENOTCONN && err != kbase.EPIPE {
			t.Fatalf("send after close: %v", err)
		}
		if c.ResetErrno() != kbase.EOK || srv.ResetErrno() != kbase.EOK {
			t.Fatalf("orderly close reset: client %v server %v", c.ResetErrno(), srv.ResetErrno())
		}
	})
}

// A FIN lost on a 40%-loss link is retransmitted: the server still
// reads every byte, then EOF, and its own close completes.
func TestStreamFinRetransmission(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 28, net.LinkParams{Delay: 1, LossProb: 0.4})
		c, srv := l.connect(t, 80)
		c.Send([]byte("last words"))
		c.Close()
		if got := l.readEOF(t, srv, 60000); string(got) != "last words" {
			t.Fatalf("read %q before EOF", got)
		}
		srv.Close()
		if !l.sim.RunUntil(srv.Closed, 60000) {
			t.Fatalf("server close never completed under loss")
		}
	})
}

// Nothing listens on the port, so the SYN is retransmitted until the
// retry limit and the dial fails with a typed ETIMEDOUT.
func TestStreamConnectClosedPort(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 6, net.LinkParams{Delay: 1})
		c, err := l.a.DialStream(2, 9999)
		if err != kbase.EOK {
			t.Fatalf("DialStream: %v", err)
		}
		if !l.sim.RunUntil(c.Closed, 100000) {
			t.Fatalf("SYN to a closed port never gave up")
		}
		if e := c.ResetErrno(); e != kbase.ETIMEDOUT {
			t.Fatalf("ResetErrno = %v, want ETIMEDOUT", e)
		}
	})
}

func TestStreamListenConflict(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 8, net.LinkParams{Delay: 1})
		lst, err := l.a.ListenStream(80)
		if err != kbase.EOK {
			t.Fatalf("ListenStream: %v", err)
		}
		if _, err := l.a.ListenStream(80); err != kbase.EEXIST {
			t.Fatalf("second listen on the port: %v, want EEXIST", err)
		}
		lst.Close()
		if _, err := l.a.ListenStream(80); err != kbase.EOK {
			t.Fatalf("listen after close: %v", err)
		}
	})
}

// Five connections to one listener come up, and each server-side
// stream gets its own client's byte.
func TestStreamMultipleConnections(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 13, net.LinkParams{Delay: 1, LossProb: 0.05})
		lst, _ := l.b.ListenStream(80)
		const n = 5
		clients := make([]net.Stream, n)
		for i := range clients {
			clients[i], _ = l.a.DialStream(2, 80)
		}
		var servers []net.Stream
		ok := l.sim.RunUntil(func() bool {
			for {
				s, e := lst.AcceptStream()
				if e != kbase.EOK {
					break
				}
				servers = append(servers, s)
			}
			return len(servers) == n && every(clients, net.Stream.Established)()
		}, 20000)
		if !ok {
			t.Fatalf("%d of %d connections accepted", len(servers), n)
		}
		for i, c := range clients {
			c.Send([]byte{byte(i + 1)})
		}
		seen := map[byte]bool{}
		l.sim.RunUntil(func() bool {
			for _, s := range servers {
				if n, _ := s.Recv(l.buf); n > 0 {
					seen[l.buf[0]] = true
				}
			}
			return len(seen) == n
		}, 20000)
		if len(seen) != n {
			t.Fatalf("delivered client bytes: %v", seen)
		}
	})
}

// Property: the stream delivers exactly the bytes sent, for arbitrary
// payloads and seeds, over a lossy, reordering link.
func TestStreamIntegrityProperty(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		stackOf := sc.build(t, tuning{})
		f := func(seed uint64, data []byte) bool {
			if len(data) == 0 {
				return true
			}
			if len(data) > 4096 {
				data = data[:4096]
			}
			l := newLink(stackOf, seed, net.LinkParams{Delay: 1, LossProb: 0.1, ReorderJitter: 3})
			c, srv, ok := l.dial(80, 5000)
			if !ok || c.Send(data) != kbase.EOK {
				return false
			}
			return bytes.Equal(l.readN(srv, nil, len(data), 40000), data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

// Jitter beyond the RTO reorders data segments and ACKs alike.
func TestStreamReorderJitter(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 25, net.LinkParams{Delay: 1, ReorderJitter: 40})
		c, srv := l.connect(t, 80)
		payload := patterned(16384, 7)
		if got := l.transfer(t, c, srv, payload, 60000); !bytes.Equal(got, payload) {
			t.Fatalf("reordered transfer: got %d of %d bytes", len(got), len(payload))
		}
	})
}

func TestStreamCorruption(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 36, net.LinkParams{Delay: 1, CorruptProb: 0.15})
		c, srv := l.connect(t, 80)
		payload := patterned(12000, 17)
		if got := l.transfer(t, c, srv, payload, 120000); !bytes.Equal(got, payload) {
			t.Fatalf("corruption leaked into the stream: got %d of %d bytes", len(got), len(payload))
		}
		if l.sim.Stats().Corrupted == 0 {
			t.Fatalf("corruption model inert")
		}
	})
}

// Behind a partition that never heals the sender gives up: the stream
// closes with ETIMEDOUT, every later call returns it, and the refused
// transmits are counted.
func TestStreamRetryExhaustion(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 30, net.LinkParams{Delay: 1})
		c, _ := l.connect(t, 80)
		l.sim.Partition(1, 2)
		c.Send([]byte("doomed"))
		if !l.sim.RunUntil(c.Closed, 100000) {
			t.Fatalf("partitioned sender never gave up")
		}
		if e := c.ResetErrno(); e != kbase.ETIMEDOUT {
			t.Fatalf("ResetErrno = %v, want ETIMEDOUT", e)
		}
		if err := c.Send([]byte("x")); err != kbase.ETIMEDOUT {
			t.Fatalf("send after the reset: %v", err)
		}
		if _, err := c.Recv(l.buf); err != kbase.ETIMEDOUT {
			t.Fatalf("recv after the reset: %v", err)
		}
		if metric(l.a, "tx_errors") == 0 {
			t.Fatalf("partitioned transmits not counted")
		}
	})
}

// A receiver that does not read holds the sender to its 1 KiB window;
// once it reads, the transfer completes.
func TestStreamReceiveWindow(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		const wnd = 1024
		l := newLink(sc.build(t, tuning{recvWindow: wnd}), 34, net.LinkParams{Delay: 1})
		c, srv := l.connect(t, 80)
		payload := patterned(10000, 11)
		c.Send(payload)
		l.sim.Run(2000)
		got := l.drain(srv, nil)
		if len(got) > wnd+net.MSS {
			t.Fatalf("sender overran the receive window: %d bytes were waiting", len(got))
		}
		if got = l.readN(srv, got, len(payload), 120000); !bytes.Equal(got, payload) {
			t.Fatalf("windowed transfer: got %d of %d bytes", len(got), len(payload))
		}
	})
}

// A receiver that does not read closes its 512-byte window; the sender
// keeps probing it, counted by its stack's zero_wnd_probes, and once
// the receiver reads, every byte arrives.
func TestStreamZeroWindowProbe(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := newLink(sc.build(t, tuning{recvWindow: 512}), 35, net.LinkParams{Delay: 1})
		c, srv := l.connect(t, 80)
		payload := patterned(4096, 13)
		if err := c.Send(payload); err != kbase.EOK {
			t.Fatalf("Send: %v", err)
		}
		l.sim.Run(3000) // the window fills; probes keep the connection alive
		if metric(l.a, "zero_wnd_probes") == 0 {
			t.Fatalf("closed window never probed")
		}
		if got := l.readN(srv, nil, len(payload), 120000); !bytes.Equal(got, payload) {
			t.Fatalf("zero-window transfer: got %d of %d bytes", len(got), len(payload))
		}
	})
}

// On a 10-jiffy link the ~21-jiffy RTT is above the fixed 16-jiffy
// RTO, so every fixed-RTO data timer fires before its ACK returns; the
// adaptive estimator settles above the RTT and retransmits less.
func TestStreamAdaptiveRTO(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		payload := patterned(8192, 31)
		retransmits := func(fixed bool) uint64 {
			l := newLink(sc.build(t, tuning{fixedRTO: fixed}), 40, net.LinkParams{Delay: 10})
			c, srv := l.connect(t, 80)
			if got := l.transfer(t, c, srv, payload, 60000); !bytes.Equal(got, payload) {
				t.Fatalf("fixed=%v transfer: got %d of %d bytes", fixed, len(got), len(payload))
			}
			return c.RetransmitCount()
		}
		if adaptive, fixed := retransmits(false), retransmits(true); adaptive >= fixed {
			t.Fatalf("adaptive RTO (%d retransmits) not better than fixed (%d) on a 21-jiffy-RTT path",
				adaptive, fixed)
		}
	})
}

// An outage shorter than retry exhaustion only delays the transfer.
func TestStreamPartitionHeal(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 37, net.LinkParams{Delay: 1})
		c, srv := l.connect(t, 80)
		payload := patterned(6000, 19)
		c.Send(payload)
		l.sim.Run(5)
		l.sim.Partition(1, 2)
		l.sim.Run(60)
		l.sim.Heal(1, 2)
		if got := l.readN(srv, nil, len(payload), 60000); !bytes.Equal(got, payload) {
			t.Fatalf("healed transfer: got %d of %d bytes", len(got), len(payload))
		}
	})
}

// Closed connections leave both hosts' demux tables.
func TestStreamReapClosedConns(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 60, net.LinkParams{Delay: 1})
		c, srv := l.connect(t, 80)
		c.Close()
		srv.Close()
		if !l.sim.RunUntil(func() bool {
			return metric(l.a, "conns") == 0 && metric(l.b, "conns") == 0
		}, 10000) {
			t.Fatalf("closed connections not reaped: %d and %d left",
				metric(l.a, "conns"), metric(l.b, "conns"))
		}
		if !c.Closed() || !srv.Closed() {
			t.Fatalf("reaped streams read closed=%v and %v", c.Closed(), srv.Closed())
		}
	})
}

// Idle established connections are free: no armed timer on either
// host, so a step touches nothing and allocates nothing. Every
// established child waits in the backlog, and nothing else does.
func TestStreamIdleConnsHoldNoTimers(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 1, net.LinkParams{Delay: 1})
		lst, err := l.b.ListenStream(80)
		if err != kbase.EOK {
			t.Fatalf("ListenStream: %v", err)
		}
		conns := make([]net.Stream, 100)
		for i := range conns {
			if conns[i], err = l.a.DialStream(2, 80); err != kbase.EOK {
				t.Fatalf("dial %d: %v", i, err)
			}
		}
		if !l.sim.RunUntil(every(conns, net.Stream.Established), 1000) {
			t.Fatal("connections did not establish")
		}
		l.sim.Run(300) // handshake timers and stray segments drain
		if a, b := l.a.TimerCount(), l.b.TimerCount(); a != 0 || b != 0 {
			t.Fatalf("idle hosts hold %d and %d armed timers", a, b)
		}
		if allocs := testing.AllocsPerRun(200, l.sim.Step); allocs != 0 {
			t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
		}
		for i := range conns {
			if _, err := lst.AcceptStream(); err != kbase.EOK {
				t.Fatalf("accept %d of %d: %v", i, len(conns), err)
			}
		}
		if _, err := lst.AcceptStream(); err != kbase.EAGAIN {
			t.Fatalf("accept past %d children: %v, want EAGAIN", len(conns), err)
		}
	})
}

// 16384 concurrent dials use up the ephemeral ports; the next fails
// fast with EADDRINUSE.
func TestStreamEphemeralExhaustion(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 1, net.LinkParams{Delay: 1})
		if _, err := l.b.ListenStream(80); err != kbase.EOK {
			t.Fatalf("ListenStream: %v", err)
		}
		for i := 0; i < 16384; i++ {
			if _, err := l.a.DialStream(2, 80); err != kbase.EOK {
				t.Fatalf("dial %d: %v", i, err)
			}
		}
		if _, err := l.a.DialStream(2, 80); err != kbase.EADDRINUSE {
			t.Fatalf("dial on an exhausted host: %v, want EADDRINUSE", err)
		}
		if n := metric(l.a, "free_ports"); n != 0 {
			t.Fatalf("%d ports free at exhaustion", n)
		}
	})
}

// 5 waves of 4000 connections, each closed before the next, are more
// than the 16384 ephemeral ports: closed connections must give their
// ports back.
func TestStreamPortRecycling(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 92, net.LinkParams{Delay: 1})
		lst, err := l.b.ListenStream(80)
		if err != kbase.EOK {
			t.Fatalf("ListenStream: %v", err)
		}
		const waves, perWave = 5, 4000
		for w := 0; w < waves; w++ {
			conns := make([]net.Stream, perWave)
			for i := range conns {
				if conns[i], err = l.a.DialStream(2, 80); err != kbase.EOK {
					t.Fatalf("wave %d dial %d: %v (%d ports free)", w, i, err, metric(l.a, "free_ports"))
				}
			}
			if !l.sim.RunUntil(every(conns, net.Stream.Established), 3000) {
				t.Fatalf("wave %d did not establish", w)
			}
			l.sim.Run(5) // the last handshake ACKs reach the listener
			var children []net.Stream
			for {
				c, err := lst.AcceptStream()
				if err != kbase.EOK {
					break
				}
				children = append(children, c)
			}
			if len(children) != perWave {
				t.Fatalf("wave %d accepted %d of %d", w, len(children), perWave)
			}
			for _, c := range append(children, conns...) {
				c.Close()
			}
			if !l.sim.RunUntil(every(conns, net.Stream.Closed), 3000) {
				t.Fatalf("wave %d did not close", w)
			}
			l.sim.Run(net.TimeWaitJiffies + 8) // TIME_WAIT drains; the ports free
		}
		if n := metric(l.a, "free_ports"); n != 16384 {
			t.Fatalf("after churn %d ports free, want all 16384", n)
		}
		if a, b := metric(l.a, "conns"), metric(l.b, "conns"); a != 0 || b != 0 {
			t.Fatalf("after churn %d and %d connections still in demux", a, b)
		}
	})
}

// A SYN refused by the link is retransmitted exactly at the InitialRTO
// deadline: the timer wheel keeps per-jiffy timing, which the
// differential sweep depends on.
func TestStreamWheelRetransmitTiming(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		l := sc.link(t, 7, net.LinkParams{Delay: 1})
		l.sim.PartitionOneWay(1, 2)
		c, err := l.a.DialStream(2, 80)
		if err != kbase.EOK {
			t.Fatalf("DialStream: %v", err)
		}
		l.sim.Run(net.InitialRTO - 1)
		if n := c.RetransmitCount(); n != 0 {
			t.Fatalf("%d retransmits before the RTO deadline", n)
		}
		l.sim.Run(2)
		if n := c.RetransmitCount(); n != 1 {
			t.Fatalf("%d retransmits one jiffy past the deadline, want exactly 1", n)
		}
		l.sim.Heal(1, 2)
		if _, err := l.b.ListenStream(80); err != kbase.EOK {
			t.Fatalf("ListenStream: %v", err)
		}
		if !l.sim.RunUntil(c.Established, 600) {
			t.Fatal("connection never recovered after the heal")
		}
	})
}

// TestStreamDuplicatingLink runs a stream over a link that duplicates
// every packet. Uncorrupted, the two copies share one buffer, so a
// receiver that wrote into a delivered packet would corrupt its
// duplicate and the host would refuse it: none may be refused. With
// some copies corrupted the stream still arrives intact; with every
// copy corrupted no connection comes up and every delivered packet is
// refused.
func TestStreamDuplicatingLink(t *testing.T) {
	onBothStacks(t, func(t *testing.T, sc stackCase) {
		for _, corrupt := range []float64{0, 0.2, 1} {
			l := sc.link(t, 11, net.LinkParams{Delay: 1, DupProb: 1, CorruptProb: corrupt})
			bad := func() uint64 { return refused(l.ha, l.a) + refused(l.hb, l.b) }
			if corrupt == 1 {
				if _, _, ok := l.dial(80, 200); ok {
					t.Fatalf("a connection came up over a link that corrupts every packet")
				}
				if n, d := bad(), l.sim.Stats().Delivered; n != d {
					t.Fatalf("%d of %d delivered packets refused", n, d)
				}
				continue
			}
			c, srv := l.connect(t, 80)
			payload := patterned(12000, 13)
			c.Send(payload)
			var got []byte
			l.sim.RunUntil(func() bool {
				got = l.drain(srv, got)
				return len(got) >= len(payload) && l.sim.InFlight() == 0
			}, 20000)
			if !bytes.Equal(got, payload) {
				t.Fatalf("corrupt=%v: got %d of %d bytes", corrupt, len(got), len(payload))
			}
			if n := bad(); corrupt == 0 && n != 0 {
				t.Fatalf("%d uncorrupted packets refused", n)
			}
		}
	})
}

// BenchmarkSegmentRoundTrip moves one payload per op through a stack:
// marshal, send, Sim.Step, parse and deliver, then the receiver drains
// it. 1 KiB is two MSS-sized segments.
func BenchmarkSegmentRoundTrip(b *testing.B) {
	for _, sc := range stackCases {
		for _, size := range []struct {
			name string
			n    int
		}{{"64B", 64}, {"1KiB", 1024}} {
			b.Run(sc.name+"/"+size.name, func(b *testing.B) {
				l := sc.link(b, 1, net.LinkParams{Delay: 1})
				c, srv, ok := l.dial(80, 1000)
				if !ok {
					b.Fatal("handshake stalled")
				}
				payload := make([]byte, size.n)
				buf := make([]byte, 2*size.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Send(payload)
					l.sim.Step()
					if n, _ := srv.Recv(buf); n != size.n {
						b.Fatalf("received %d bytes, want %d", n, size.n)
					}
				}
			})
		}
	}
}
