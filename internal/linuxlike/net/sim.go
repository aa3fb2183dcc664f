package net

import (
	"sort"

	"safelinux/internal/linuxlike/kbase"
)

// LinkParams model one direction of a link. Beyond the original
// delay/loss/dup/jitter knobs, a link can corrupt packets in flight
// (CorruptProb) and serialize them through a finite bandwidth
// (BandwidthBPJ), so queueing delay grows with offered load the way a
// saturated NIC's does.
type LinkParams struct {
	Delay         uint64  // jiffies of propagation delay (min 1)
	LossProb      float64 // probability a packet is dropped
	DupProb       float64 // probability a packet is duplicated
	ReorderJitter uint64  // extra random delay 0..Jitter added per packet
	CorruptProb   float64 // probability one byte of the packet is flipped in flight
	BandwidthBPJ  uint64  // bytes per jiffy the link can carry (0 = infinite)
}

// inFlight is one packet scheduled for delivery.
type inFlight struct {
	at  uint64
	seq uint64 // tiebreaker for deterministic ordering
	dst Addr
	pkt Packet
}

// Sim is the deterministic network simulator: hosts, links, in-flight
// packets, partitions, and the clock.
type Sim struct {
	clock    *kbase.Clock
	rng      *kbase.Rng
	hosts    map[Addr]*Host
	hostList []*Host // sorted by address: the deterministic tick order
	links    map[[2]Addr]LinkParams
	cuts     map[[2]Addr]bool   // partitioned directions (src,dst)
	busy     map[[2]Addr]uint64 // per-direction link busy-until (bandwidth shaping)
	flight   []inFlight
	nextSeq  uint64

	// Step's reusable scratch: the steady path allocates nothing.
	due     []inFlight
	scratch []inFlight

	stats SimStats
}

// SimStats counts simulator activity.
type SimStats struct {
	Sent           uint64
	Delivered      uint64
	Dropped        uint64
	Duplicated     uint64
	Corrupted      uint64
	PartitionDrops uint64
}

// NewSim creates a simulator with a deterministic seed.
func NewSim(seed uint64) *Sim {
	return &Sim{
		clock: kbase.NewClock(),
		rng:   kbase.NewRng(seed),
		hosts: make(map[Addr]*Host),
		links: make(map[[2]Addr]LinkParams),
		cuts:  make(map[[2]Addr]bool),
		busy:  make(map[[2]Addr]uint64),
	}
}

// Clock returns the simulation clock.
func (s *Sim) Clock() *kbase.Clock { return s.clock }

// Stats returns a snapshot of simulator counters.
func (s *Sim) Stats() SimStats { return s.stats }

// AddHost creates a host with the given address.
func (s *Sim) AddHost(addr Addr) *Host {
	h := newHost(s, addr)
	s.hosts[addr] = h
	// Keep hostList sorted by address so Step never re-sorts.
	i := sort.Search(len(s.hostList), func(i int) bool {
		return s.hostList[i].addr >= addr
	})
	s.hostList = append(s.hostList, nil)
	copy(s.hostList[i+1:], s.hostList[i:])
	s.hostList[i] = h
	return h
}

// Link connects two hosts bidirectionally with the same parameters.
func (s *Sim) Link(a, b Addr, p LinkParams) {
	if p.Delay == 0 {
		p.Delay = 1
	}
	s.links[[2]Addr{a, b}] = p
	s.links[[2]Addr{b, a}] = p
}

// Partition cuts the link between a and b in both directions. Packets
// already in flight still deliver (they are on the wire); new sends
// fail with ENETUNREACH.
func (s *Sim) Partition(a, b Addr) {
	s.cuts[[2]Addr{a, b}] = true
	s.cuts[[2]Addr{b, a}] = true
}

// PartitionOneWay cuts only the a→b direction, modeling an
// asymmetric-route failure: b's packets still reach a.
func (s *Sim) PartitionOneWay(a, b Addr) {
	s.cuts[[2]Addr{a, b}] = true
}

// Heal restores both directions between a and b.
func (s *Sim) Heal(a, b Addr) {
	delete(s.cuts, [2]Addr{a, b})
	delete(s.cuts, [2]Addr{b, a})
}

// send schedules a packet from src to dst, applying the link model.
func (s *Sim) send(src, dst Addr, pkt Packet) kbase.Errno {
	dir := [2]Addr{src, dst}
	lp, ok := s.links[dir]
	if !ok {
		return kbase.ENODEV
	}
	if s.cuts[dir] {
		s.stats.PartitionDrops++
		return kbase.ENETUNREACH
	}
	s.stats.Sent++
	if s.rng.Bool(lp.LossProb) {
		s.stats.Dropped++
		return kbase.EOK // loss is silent, as on the wire
	}
	// Bandwidth shaping: a finite link serializes packets, so each one
	// waits for the wire to drain before its propagation delay starts.
	now := s.clock.Now()
	var txDone uint64
	if lp.BandwidthBPJ > 0 {
		txTime := (uint64(len(pkt)) + lp.BandwidthBPJ - 1) / lp.BandwidthBPJ
		if txTime == 0 {
			txTime = 1
		}
		start := now
		if s.busy[dir] > start {
			start = s.busy[dir]
		}
		txDone = start + txTime
		s.busy[dir] = txDone
	} else {
		txDone = now
	}
	deliver := func() {
		delay := lp.Delay
		if lp.ReorderJitter > 0 {
			delay += uint64(s.rng.Intn(int(lp.ReorderJitter) + 1))
		}
		s.nextSeq++
		cp := make(Packet, len(pkt))
		copy(cp, pkt)
		if s.rng.Bool(lp.CorruptProb) && len(cp) > 0 {
			// An adversarial or faulty link flips one byte somewhere in
			// the packet — header, length field, or payload.
			s.stats.Corrupted++
			cp[s.rng.Intn(len(cp))] ^= byte(1 << uint(s.rng.Intn(8)))
		}
		s.flight = append(s.flight, inFlight{
			at: txDone + delay, seq: s.nextSeq, dst: dst, pkt: cp,
		})
	}
	deliver()
	if s.rng.Bool(lp.DupProb) {
		s.stats.Duplicated++
		deliver()
	}
	return kbase.EOK
}

// Step advances the clock one jiffy, delivers due packets in
// deterministic order, and ticks every host's timers. With nothing on
// the wire and all connections idle, a step allocates nothing.
func (s *Sim) Step() {
	now := s.clock.Advance(1)
	if len(s.flight) > 0 {
		due := s.due[:0]
		rest := s.scratch[:0]
		for _, f := range s.flight {
			if f.at <= now {
				due = append(due, f)
			} else {
				rest = append(rest, f)
			}
		}
		// Swap the backing arrays so next Step reuses this one.
		s.due, s.scratch, s.flight = due, s.flight[:0], rest
		if len(due) > 1 {
			sort.Slice(due, func(i, j int) bool {
				if due[i].at != due[j].at {
					return due[i].at < due[j].at
				}
				return due[i].seq < due[j].seq
			})
		}
		for i, f := range due {
			if h, ok := s.hosts[f.dst]; ok {
				s.stats.Delivered++
				h.receive(f.pkt)
			}
			due[i].pkt = nil // drop the packet reference for the GC
		}
	}
	// Deterministic host tick order (hostList is sorted by address).
	for _, h := range s.hostList {
		h.tick(now)
	}
}

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// RunUntil steps until cond returns true or limit steps elapse. It
// reports whether cond was met.
func (s *Sim) RunUntil(cond func() bool, limit int) bool {
	for i := 0; i < limit; i++ {
		if cond() {
			return true
		}
		s.Step()
	}
	return cond()
}

// InFlight returns the number of packets currently on the wire.
func (s *Sim) InFlight() int { return len(s.flight) }
