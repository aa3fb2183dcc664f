// Differential network fuzzing: the legacy TCP stack and safetcp run
// the same transfer under the same deterministic fault schedule —
// seeded loss, duplication, reordering, corruption, bandwidth shaping
// and partitions — and must agree on the outcome: the byte stream
// arrives intact, or the connection dies with a typed reset. Any
// other pairing (one delivers while the other stalls, one corrupts,
// reset errnos disagree) is a divergence, and the ktrace flight
// recorder's last events for both legs are attached to the report.
//
// The two stacks consume the link's RNG differently (different wire
// formats, different segment counts), so per-packet fates are not
// comparable — only end-to-end outcomes are. That is the point: the
// schedules assert behavioral equivalence of the stacks, not
// packet-level lockstep.
package faultinject

import (
	"bytes"
	"fmt"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/own"
)

// Outcome classes for one stack's run of a schedule.
const (
	// NetDelivered: every payload byte arrived intact and the
	// receiver saw a clean EOF.
	NetDelivered = "delivered"
	// NetReset: the connection died with a typed reset
	// (ECONNRESET/ETIMEDOUT) before completing.
	NetReset = "reset"
	// NetCorrupt: the receiver saw EOF but the bytes were wrong —
	// never acceptable, even if both stacks agree.
	NetCorrupt = "corrupt"
	// NetStalled: the step budget ran out with neither delivery nor
	// a typed reset — a hung connection.
	NetStalled = "stalled"
)

// NetSchedule is one deterministic fault schedule: a seed, a link
// fault model, optional partition timing, and a transfer size.
type NetSchedule struct {
	Name        string
	Seed        uint64
	Link        net.LinkParams
	Bytes       int
	PartitionAt uint64 // jiffy at which to cut the link (0 = never)
	HealAt      uint64 // jiffy at which to heal it (0 = never)
	OneWay      bool   // cut only client→server, not both ways
	MaxSteps    int
}

// NetOutcome is what one stack did under a schedule.
type NetOutcome struct {
	Class       string
	Reset       kbase.Errno // non-EOK when Class == NetReset
	Got         int         // payload bytes the receiver accepted
	Retransmits uint64
	Steps       int
}

func (o NetOutcome) String() string {
	s := fmt.Sprintf("%s got=%d retrans=%d steps=%d", o.Class, o.Got, o.Retransmits, o.Steps)
	if o.Reset != kbase.EOK {
		s += fmt.Sprintf(" errno=%v", o.Reset)
	}
	return s
}

// NetDivergence is a schedule on which the stacks disagreed, with the
// flight-recorder tail of each leg.
type NetDivergence struct {
	Schedule    NetSchedule
	Legacy      NetOutcome
	Safe        NetOutcome
	LegacyTrace []string
	SafeTrace   []string
}

// NetReport aggregates a differential sweep.
type NetReport struct {
	Schedules   int
	LegacyClass map[string]int
	SafeClass   map[string]int
	// Legacy and Safe hold each leg's outcome, one per schedule, in
	// sweep order.
	Legacy, Safe []NetOutcome
	Divergences  []NetDivergence
}

// netPayload derives the transfer bytes from the schedule seed, so
// both legs (and any re-run) see the identical stream.
func netPayload(s NetSchedule) []byte {
	p := make([]byte, s.Bytes)
	for i := range p {
		p[i] = byte(uint64(i)*2654435761 + s.Seed*40503)
	}
	return p
}

// runNet runs one schedule on the stream stack stackOf builds on each
// host: step the simulation, apply the partition schedule, accept,
// close the client once established, and drain the server until a
// terminal condition.
func runNet(s NetSchedule, stackOf func(*net.Host) net.StreamStack) NetOutcome {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	sim := net.NewSim(s.Seed)
	hA := sim.AddHost(1)
	hB := sim.AddHost(2)
	sim.Link(1, 2, s.Link)
	a, b := stackOf(hA), stackOf(hB)
	lst, _ := b.ListenStream(80)
	cli, _ := a.DialStream(2, 80)
	payload := netPayload(s)
	_ = cli.Send(payload) // queued behind the handshake; delivery is what the diff checks

	var srv net.Stream
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 2048)
	finish := func(class string, errno kbase.Errno, step int) NetOutcome {
		out := NetOutcome{Class: class, Reset: errno, Got: len(got), Steps: step}
		out.Retransmits = cli.RetransmitCount()
		if srv != nil {
			out.Retransmits += srv.RetransmitCount()
		}
		return out
	}
	cut, healed, closed := false, false, false
	for step := 1; step <= s.MaxSteps; step++ {
		now := sim.Clock().Now()
		if !cut && s.PartitionAt != 0 && now >= s.PartitionAt {
			cut = true
			if s.OneWay {
				sim.PartitionOneWay(1, 2)
			} else {
				sim.Partition(1, 2)
			}
		}
		if cut && !healed && s.HealAt != 0 && now >= s.HealAt {
			healed = true
			sim.Heal(1, 2)
		}
		sim.Step()
		if srv == nil {
			srv, _ = lst.AcceptStream()
		}
		if !closed && cli.Established() {
			_ = cli.Close() // FIN rides behind the queued data
			closed = true
		}
		for srv != nil {
			n, e := srv.Recv(buf)
			if n > 0 {
				got = append(got, buf[:n]...)
				continue
			}
			if e == kbase.EAGAIN {
				break
			}
			if e == kbase.EOK { // clean EOF
				if bytes.Equal(got, payload) {
					return finish(NetDelivered, kbase.EOK, step)
				}
				return finish(NetCorrupt, kbase.EOK, step)
			}
			return finish(NetReset, e, step) // typed reset, post-drain
		}
		// The client gave up (retry exhaustion behind a partition).
		// Once nothing is left in flight the server's world cannot
		// change, so classify rather than spinning to the limit.
		if errno := cli.ResetErrno(); errno != kbase.EOK && sim.InFlight() == 0 {
			return finish(NetReset, errno, step)
		}
	}
	return finish(NetStalled, kbase.EOK, s.MaxSteps)
}

// legacyStack is the legacy leg's stack builder: the host's own
// socket/TCB layer.
func legacyStack(h *net.Host) net.StreamStack { return h }

// safeStack returns the safe leg's stack builder: safetcp attached to
// each host, every endpoint sharing one ownership checker.
func safeStack() func(*net.Host) net.StreamStack {
	ck := own.NewChecker(own.PolicyRecord)
	return func(h *net.Host) net.StreamStack { return safetcp.Attach(h, ck) }
}

// netEquivalent decides whether two outcomes agree. Classes must
// match; corruption and stalls are divergences even when mirrored;
// typed resets must carry the same errno.
func netEquivalent(l, s NetOutcome) bool {
	if l.Class != s.Class {
		return false
	}
	switch l.Class {
	case NetCorrupt, NetStalled:
		return false
	case NetReset:
		return l.Reset == s.Reset
	}
	return true
}

// runNetDiff sweeps the schedules through both stacks under the
// flight recorder and reports every divergence with trace context.
func runNetDiff(schedules []NetSchedule) NetReport {
	ktrace.EnableFlightRecorder(256)
	defer ktrace.DisableFlightRecorder()
	rep := NetReport{
		Schedules:   len(schedules),
		LegacyClass: map[string]int{},
		SafeClass:   map[string]int{},
	}
	for _, s := range schedules {
		ktrace.Buffer().Reset()
		lo := runNet(s, legacyStack)
		ltr := ktrace.FormatEvents(ktrace.Buffer().Last(32))
		ktrace.Buffer().Reset()
		so := runNet(s, safeStack())
		str := ktrace.FormatEvents(ktrace.Buffer().Last(32))
		rep.LegacyClass[lo.Class]++
		rep.SafeClass[so.Class]++
		rep.Legacy = append(rep.Legacy, lo)
		rep.Safe = append(rep.Safe, so)
		if !netEquivalent(lo, so) {
			rep.Divergences = append(rep.Divergences, NetDivergence{
				Schedule: s, Legacy: lo, Safe: so,
				LegacyTrace: ltr, SafeTrace: str,
			})
		}
	}
	return rep
}

// render formats the sweep for humans (and the CI log).
func (r *NetReport) render() []string {
	out := []string{
		fmt.Sprintf("differential TCP sweep: %d schedules, %d divergences",
			r.Schedules, len(r.Divergences)),
		fmt.Sprintf("  legacy: %v", r.LegacyClass),
		fmt.Sprintf("  safe:   %v", r.SafeClass),
	}
	for _, d := range r.Divergences {
		out = append(out, fmt.Sprintf("  DIVERGE %s (seed %d): legacy{%s} vs safe{%s}",
			d.Schedule.Name, d.Schedule.Seed, d.Legacy, d.Safe))
		for _, ln := range d.LegacyTrace {
			out = append(out, "    legacy| "+ln)
		}
		for _, ln := range d.SafeTrace {
			out = append(out, "    safe  | "+ln)
		}
	}
	return out
}

// netFaultClasses are the link fault models the sweep crosses with
// seeds. Partition times are early (the handshake takes ~5 jiffies on
// a Delay-1 link) so the cut lands mid-stream, and heals leave enough
// retry budget to recover.
var netFaultClasses = []struct {
	name                string
	link                net.LinkParams
	partitionAt, healAt uint64
	oneWay              bool
	bytes               int // 0 = seed-varied 1-4KB
}{
	{name: "clean", link: net.LinkParams{Delay: 1}},
	{name: "loss1", link: net.LinkParams{Delay: 1, LossProb: 0.01}},
	{name: "loss5", link: net.LinkParams{Delay: 1, LossProb: 0.05}},
	{name: "loss20", link: net.LinkParams{Delay: 1, LossProb: 0.20}},
	{name: "dup", link: net.LinkParams{Delay: 1, DupProb: 0.20}},
	{name: "reorder", link: net.LinkParams{Delay: 1, ReorderJitter: 40}},
	{name: "corrupt", link: net.LinkParams{Delay: 1, CorruptProb: 0.10}},
	{name: "bandwidth", link: net.LinkParams{Delay: 2, BandwidthBPJ: 256}},
	// Partition classes move 16KB (several window-limited RTTs) so a
	// cut at jiffy 4 lands mid-stream; a clean Delay-1 link finishes
	// a 2KB transfer in ~3 jiffies.
	{name: "partition-heal", link: net.LinkParams{Delay: 1}, partitionAt: 4, healAt: 120, bytes: 16384},
	{name: "partition-oneway", link: net.LinkParams{Delay: 1}, partitionAt: 4, healAt: 120, oneWay: true, bytes: 16384},
	{name: "partition-noheal", link: net.LinkParams{Delay: 1}, partitionAt: 4, bytes: 16384},
	{name: "kitchen-sink", link: net.LinkParams{Delay: 1, LossProb: 0.05, DupProb: 0.05, ReorderJitter: 20, CorruptProb: 0.02}},
}

// netSweep builds the CI schedule set: every fault class crossed with
// seedsPerClass seeds and seed-varied transfer sizes. seedsPerClass
// <= 0 selects the default (which yields >= 200 schedules).
func netSweep(seedsPerClass int) []NetSchedule {
	if seedsPerClass <= 0 {
		seedsPerClass = 17
	}
	var out []NetSchedule
	for ci, fc := range netFaultClasses {
		for i := 0; i < seedsPerClass; i++ {
			seed := uint64(1000*ci + 100 + i)
			size := fc.bytes
			if size == 0 {
				size = 1024 * (1 + int(seed)%4)
			}
			out = append(out, NetSchedule{
				Name:        fmt.Sprintf("%s/%d", fc.name, i),
				Seed:        seed,
				Link:        fc.link,
				Bytes:       size,
				PartitionAt: fc.partitionAt,
				HealAt:      fc.healAt,
				OneWay:      fc.oneWay,
				MaxSteps:    120000,
			})
		}
	}
	return out
}
