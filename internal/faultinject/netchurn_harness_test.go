// Churn differential: where netdiff_harness_test.go pins one connection's
// lifecycle under faults, the churn sweep pins the data plane's
// bookkeeping under mass connection turnover — demux insert/delete,
// timer-wheel arm/cancel, ephemeral port recycling, accept-backlog
// ordering. Both stacks open waves of connections, push a payload
// through each, close them, and must agree on the outcome census:
// how many connections delivered, how many died, with which errnos.
//
// Churn classes use only deterministic-outcome fault models (clean,
// duplication, reorder, bandwidth). Lossy or corrupting links consume
// the link RNG per packet, and with dozens of interleaved connections
// the two stacks' differing wire formats would decorrelate per-
// connection fates — the single-connection sweep covers those.
package faultinject

import (
	"fmt"
	"sort"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
)

// NetChurnSchedule is one deterministic churn run: waves of
// connections against a single listener, each carrying one payload.
type NetChurnSchedule struct {
	Name     string
	Seed     uint64
	Link     net.LinkParams
	Conns    int // total connections across all waves
	Waves    int // connection waves (each fully closes before the next)
	Bytes    int // payload per connection
	MaxSteps int // per-wave step budget
}

// ChurnOutcome is one stack's census of a churn schedule.
type ChurnOutcome struct {
	// Classes counts per-connection terminal classes: "delivered"
	// (server leg saw the full payload and a clean EOF), "closed"
	// (client leg fully closed), "reset:<errno>", "stalled".
	Classes map[string]int
	// Accepted counts server-side accepts across all waves.
	Accepted int
}

func (o ChurnOutcome) String() string {
	keys := make([]string, 0, len(o.Classes))
	for k := range o.Classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("accepted=%d", o.Accepted)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, o.Classes[k])
	}
	return s
}

// churnEquivalent: the censuses must match exactly.
func churnEquivalent(l, s ChurnOutcome) bool {
	if l.Accepted != s.Accepted || len(l.Classes) != len(s.Classes) {
		return false
	}
	for k, v := range l.Classes {
		if s.Classes[k] != v {
			return false
		}
	}
	// Any stall or reset under a deterministic link is a finding even
	// when mirrored.
	return l.Classes["stalled"] == 0 && l.Classes["delivered"] > 0
}

// srvLeg tracks one accepted server-side connection.
type srvLeg struct {
	conn   net.Stream
	got    int
	eof    bool
	closed bool
}

func churnPayload(s NetChurnSchedule) []byte {
	p := make([]byte, s.Bytes)
	for i := range p {
		p[i] = byte(uint64(i)*2654435761 + s.Seed*9176)
	}
	return p
}

// runChurn runs one churn schedule on the stream stack stackOf builds
// on each host.
func runChurn(s NetChurnSchedule, stackOf func(*net.Host) net.StreamStack) ChurnOutcome {
	sim := net.NewSim(s.Seed)
	hA := sim.AddHost(1)
	hB := sim.AddHost(2)
	sim.Link(1, 2, s.Link)
	a, b := stackOf(hA), stackOf(hB)
	lst, _ := b.ListenStream(80)

	out := ChurnOutcome{Classes: map[string]int{}}
	payload := churnPayload(s)
	perWave := s.Conns / s.Waves
	buf := make([]byte, 2048)
	var servers []*srvLeg

	for w := 0; w < s.Waves; w++ {
		clients := make([]net.Stream, 0, perWave)
		closedAt := make([]bool, perWave)
		for i := 0; i < perWave; i++ {
			c, err := a.DialStream(2, 80)
			if err != kbase.EOK {
				out.Classes[fmt.Sprintf("refused:%v", err)]++
				continue
			}
			_ = c.Send(payload) // queued behind the handshake
			clients = append(clients, c)
		}
		waveStart := len(servers)
		done := func() bool {
			for _, c := range clients {
				if !c.Closed() {
					return false
				}
			}
			for _, sv := range servers[waveStart:] {
				if !sv.conn.Closed() {
					return false
				}
			}
			return true
		}
		for step := 0; step < s.MaxSteps && !done(); step++ {
			sim.Step()
			for {
				c, err := lst.AcceptStream()
				if err != kbase.EOK {
					break
				}
				out.Accepted++
				servers = append(servers, &srvLeg{conn: c})
			}
			for i, c := range clients {
				if !closedAt[i] && c.Established() {
					_ = c.Close() // FIN rides behind the queued payload
					closedAt[i] = true
				}
			}
			for _, sv := range servers[waveStart:] {
				if sv.closed {
					continue
				}
				for {
					n, e := sv.conn.Recv(buf)
					if n > 0 {
						sv.got += n
						continue
					}
					if e == kbase.EOK && !sv.eof { // clean EOF
						sv.eof = true
						_ = sv.conn.Close()
						sv.closed = true
					}
					break
				}
			}
		}
		for _, c := range clients {
			switch errno := c.ResetErrno(); {
			case errno != kbase.EOK:
				out.Classes[fmt.Sprintf("reset:%v", errno)]++
			case c.Closed():
				out.Classes["closed"]++
			default:
				out.Classes["stalled"]++
			}
		}
	}
	for _, sv := range servers {
		if sv.eof && sv.got == len(payload) {
			out.Classes["delivered"]++
		}
	}
	return out
}

// ChurnDivergence is a churn schedule the stacks disagreed on.
type ChurnDivergence struct {
	Schedule NetChurnSchedule
	Legacy   ChurnOutcome
	Safe     ChurnOutcome
}

// ChurnReport aggregates a churn sweep.
type ChurnReport struct {
	Schedules int
	Conns     int // total connections exercised
	// Legacy and Safe hold each leg's census, one per schedule, in
	// sweep order.
	Legacy, Safe []ChurnOutcome
	Divergences  []ChurnDivergence
}

// render formats the churn sweep for humans (and the CI log).
func (r *ChurnReport) render() []string {
	out := []string{fmt.Sprintf("churn TCP sweep: %d schedules, %d conns, %d divergences",
		r.Schedules, r.Conns, len(r.Divergences))}
	for _, d := range r.Divergences {
		out = append(out, fmt.Sprintf("  DIVERGE %s (seed %d): legacy{%s} vs safe{%s}",
			d.Schedule.Name, d.Schedule.Seed, d.Legacy, d.Safe))
	}
	return out
}

// runNetChurnDiff sweeps churn schedules through both stacks.
func runNetChurnDiff(schedules []NetChurnSchedule) ChurnReport {
	rep := ChurnReport{Schedules: len(schedules)}
	for _, s := range schedules {
		rep.Conns += s.Conns
		lo := runChurn(s, legacyStack)
		so := runChurn(s, safeStack())
		rep.Legacy = append(rep.Legacy, lo)
		rep.Safe = append(rep.Safe, so)
		if !churnEquivalent(lo, so) {
			rep.Divergences = append(rep.Divergences, ChurnDivergence{
				Schedule: s, Legacy: lo, Safe: so,
			})
		}
	}
	return rep
}

// churnFaultClasses: deterministic-outcome link models only (see the
// package comment for why loss and corruption are excluded here).
var churnFaultClasses = []struct {
	name string
	link net.LinkParams
}{
	{name: "clean", link: net.LinkParams{Delay: 1}},
	{name: "dup", link: net.LinkParams{Delay: 1, DupProb: 0.20}},
	{name: "reorder", link: net.LinkParams{Delay: 1, ReorderJitter: 20}},
	{name: "bandwidth", link: net.LinkParams{Delay: 2, BandwidthBPJ: 512}},
}

// netChurnSweep builds the churn schedule set: every deterministic
// fault class crossed with seedsPerClass seeds. seedsPerClass <= 0
// selects the default.
func netChurnSweep(seedsPerClass int) []NetChurnSchedule {
	if seedsPerClass <= 0 {
		seedsPerClass = 3
	}
	var out []NetChurnSchedule
	for ci, fc := range churnFaultClasses {
		for i := 0; i < seedsPerClass; i++ {
			seed := uint64(7000*ci + 500 + i)
			out = append(out, NetChurnSchedule{
				Name:     fmt.Sprintf("churn-%s/%d", fc.name, i),
				Seed:     seed,
				Link:     fc.link,
				Conns:    120,
				Waves:    3,
				Bytes:    512 * (1 + int(seed)%3),
				MaxSteps: 20000,
			})
		}
	}
	return out
}
