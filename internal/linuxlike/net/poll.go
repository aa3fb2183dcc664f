package net

import (
	"sync"

	"safelinux/internal/linuxlike/ktrace"
)

// Readiness plane: the epoll-like wait/wake API that lets one server
// goroutine drive 100k+ sockets without polling each one. Sockets
// embed a PollSource; protocol code calls Wake when a socket becomes
// readable/acceptable/closed; the consumer drains a Poller.
//
// Semantics are epoll level-triggered with edge wakeups:
//   - Wake enqueues the source once no matter how many events race in
//     before the next drain (coalescing — no wakeup storms).
//   - Poll re-snapshots readiness via Pollable.PollReady at drain
//     time; a source whose condition was already consumed is filtered
//     (spurious suppression) — and because the level is re-checked, a
//     still-ready source can never be lost.
// Both properties are observable through PollStats counters, which the
// wake-semantics tests assert.

// Tracepoint for readiness wakeups (catalog in DESIGN.md).
var tpPollWake = ktrace.New("net:poll_wake") // a0=events, a1=1 if coalesced

// PollEvents is a readiness bitmask.
type PollEvents uint8

// Readiness event bits.
const (
	PollIn  PollEvents = 1 << iota // readable: data buffered or accept queue non-empty
	PollOut                        // writable: connection established, send path open
	PollHup                        // peer closed or connection fully shut
	PollErr                        // typed reset recorded (ECONNRESET, ETIMEDOUT, ...)
)

// Pollable is anything a Poller can watch: it reports its current
// readiness level on demand.
type Pollable interface {
	PollReady() PollEvents
}

// PollEvent is one delivered readiness notification.
type PollEvent struct {
	Owner  Pollable
	Events PollEvents
}

// PollSource is the intrusive per-socket half of the readiness plane.
// Embed it in the socket type and wire it up with Poller.Watch; the
// zero value is an unwatched source.
type PollSource struct {
	owner   Pollable
	poller  *Poller
	inReady bool
}

// Watched reports whether the source is attached to a poller.
func (s *PollSource) Watched() bool { return s.poller != nil }

// PollWake signals that the source's readiness may have risen. Called
// by protocol code at every readiness edge; a no-op when unwatched.
func (s *PollSource) PollWake(ev PollEvents) {
	if p := s.poller; p != nil {
		p.wake(s, ev)
	}
}

// PollStats counts readiness-plane activity.
type PollStats struct {
	Wakeups   uint64 // PollWake calls on watched sources
	Coalesced uint64 // wakeups absorbed by an already-queued source
	Spurious  uint64 // drained sources whose readiness was already gone
	Delivered uint64 // events handed to the consumer
}

// Poller is the wait side: a ready-list of woken sources.
type Poller struct {
	mu    sync.Mutex
	ready []*PollSource
	stats PollStats
}

// NewPoller creates an empty poller.
//
//kerncheck:ignore deadexport the readiness plane has no in-tree server yet; net and safetcp tests drive it
func NewPoller() *Poller { return &Poller{} }

// Watch attaches a source to this poller. If the owner is already
// ready, the source is queued immediately so a Watch that races a
// data arrival cannot lose the wakeup.
//
//kerncheck:ignore deadexport the readiness plane has no in-tree server yet; net and safetcp tests drive it
func (p *Poller) Watch(owner Pollable, src *PollSource) {
	src.owner = owner
	src.poller = p
	if owner.PollReady() != 0 {
		p.wake(src, owner.PollReady())
	}
}

func (p *Poller) wake(s *PollSource, ev PollEvents) {
	p.mu.Lock()
	p.stats.Wakeups++
	if s.inReady {
		p.stats.Coalesced++
		p.mu.Unlock()
		tpPollWake.Emit(0, uint64(ev), 1)
		return
	}
	s.inReady = true
	p.ready = append(p.ready, s)
	p.mu.Unlock()
	tpPollWake.Emit(0, uint64(ev), 0)
}

// Poll drains up to len(out) ready sources, re-checking each one's
// level so consumed conditions are filtered out. Returns the number of
// events written; 0 means nothing is ready (the simulator's analog of
// a wait that would block). Sources that don't fit in out stay queued
// for the next call.
//
//kerncheck:ignore deadexport the readiness plane has no in-tree server yet; net and safetcp tests drive it
func (p *Poller) Poll(out []PollEvent) int {
	p.mu.Lock()
	batch := p.ready
	p.ready = nil
	p.mu.Unlock()

	n := 0
	for i, s := range batch {
		if s.poller != p {
			continue // unwatched while queued
		}
		if n == len(out) {
			// Out of room: everything not yet examined stays ready.
			p.mu.Lock()
			for _, rest := range batch[i:] {
				if rest.poller == p && rest.inReady {
					p.ready = append(p.ready, rest)
				}
			}
			p.mu.Unlock()
			break
		}
		p.mu.Lock()
		s.inReady = false
		p.mu.Unlock()
		ev := s.owner.PollReady()
		if ev == 0 {
			p.mu.Lock()
			p.stats.Spurious++
			p.mu.Unlock()
			continue
		}
		out[n] = PollEvent{Owner: s.owner, Events: ev}
		n++
	}
	if n > 0 {
		pollBatchHist.Record(uint64(n))
	}
	p.mu.Lock()
	p.stats.Delivered += uint64(n)
	p.mu.Unlock()
	return n
}
