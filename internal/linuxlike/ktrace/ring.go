package ktrace

import (
	"sort"
	"sync/atomic"
)

// The trace ring buffer.
//
// Reservation is a single fetch-add on a global sequence counter —
// the same discipline ftrace's ring_buffer_lock_reserve uses — and
// publication is a handful of atomic word stores into a flat, sharded
// slot array: the event's arguments first, its sequence number last.
// Nothing is allocated per emit and no string travels with the event
// (the tracepoint id is resolved back to a name at read time), which
// is what took the enabled-path emit from ~68 ns + a GC'd Event per
// event down to plain word stores (see BENCH_trace.json).
//
// Consecutive events land in different shards, so concurrent emitters
// do not fight over one cache line of slots, and a reader never locks
// anything: it reads the slot's sequence word, copies the payload
// words, and re-reads the sequence word — if it changed, a writer
// lapped the slot mid-read and the copy is discarded. Old events are
// overwritten in place on wraparound, which is exactly the
// flight-recorder semantics the oops dump wants; streaming readers
// (Consumer) observe the overwrite as a per-consumer drop count
// instead, computed from pure sequence arithmetic so an emitter never
// waits on — or even knows about — a consumer.
//
// The one theoretical hole: a writer stalled for an entire ring
// rotation while another writer claims the same slot can interleave
// payload stores such that a reader accepts a mixed event. That
// window needs an emitter preempted for Cap() further emits inside a
// six-store sequence; the Linux ring buffer closes it with per-CPU
// sub-buffers, a flight recorder for a simulated kernel documents it.

// RingShards is the slot-striping factor of the ring.
const RingShards = 16

// DefaultRingPerShard is the default per-shard slot count (total
// default capacity: RingShards * DefaultRingPerShard events).
const DefaultRingPerShard = 512

// slot is one event's storage: six independently-atomic words. seq is
// stored last (publication) and doubles as the validity check for
// readers; meta packs the task id (high 32 bits) over the tracepoint
// id (low 32 bits).
type slot struct {
	seq  atomic.Uint64
	meta atomic.Uint64
	a0   atomic.Uint64
	a1   atomic.Uint64
	a2   atomic.Uint64
	a3   atomic.Uint64
}

// Ring is a fixed-capacity, lock-free trace event buffer.
type Ring struct {
	seq    atomic.Uint64
	mask   uint64 // perShard - 1 (perShard is a power of two)
	shards [RingShards][]slot
}

// NewRing creates a ring holding RingShards*perShard events; perShard
// is rounded up to a power of two (minimum 8).
func NewRing(perShard int) *Ring {
	n := 8
	for n < perShard {
		n <<= 1
	}
	r := &Ring{mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i] = make([]slot, n)
	}
	return r
}

// Cap returns the total event capacity.
func (r *Ring) Cap() int { return RingShards * int(r.mask+1) }

func (r *Ring) slotFor(s uint64) *slot {
	return &r.shards[s%RingShards][(s/RingShards)&r.mask]
}

// write claims the next sequence number and publishes one event,
// overwriting the oldest event in its slot on wraparound. The
// sequence word is stored last: a reader that sees seq == s knows the
// payload words were stored by (or before) that publication.
func (r *Ring) write(tpid uint32, task int64, a0, a1, a2, a3 uint64) {
	s := r.seq.Add(1)
	sl := r.slotFor(s)
	sl.meta.Store(uint64(uint32(task))<<32 | uint64(tpid))
	sl.a0.Store(a0)
	sl.a1.Store(a1)
	sl.a2.Store(a2)
	sl.a3.Store(a3)
	sl.seq.Store(s)
}

// load reads the event with sequence s, validating that the slot
// still holds it after the payload copy.
func (r *Ring) load(s uint64) (Event, bool) {
	sl := r.slotFor(s)
	if sl.seq.Load() != s {
		return Event{}, false
	}
	meta := sl.meta.Load()
	a0, a1, a2, a3 := sl.a0.Load(), sl.a1.Load(), sl.a2.Load(), sl.a3.Load()
	if sl.seq.Load() != s {
		return Event{}, false
	}
	return unpackEvent(s, meta, a0, a1, a2, a3), true
}

func unpackEvent(s, meta, a0, a1, a2, a3 uint64) Event {
	tpid := uint32(meta)
	return Event{
		Seq: s, TPID: tpid, Name: nameForID(tpid),
		Task: int64(meta >> 32),
		A0:   a0, A1: a1, A2: a2, A3: a3,
	}
}

// Emitted returns the total number of events ever written (including
// those since overwritten).
func (r *Ring) Emitted() uint64 { return r.seq.Load() }

// Snapshot returns every live event in ascending sequence order. It
// takes no locks; events published concurrently with the snapshot may
// or may not be included, and a slot overwritten mid-copy is skipped.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, 64)
	for i := range r.shards {
		for j := range r.shards[i] {
			sl := &r.shards[i][j]
			s := sl.seq.Load()
			if s == 0 {
				continue
			}
			meta := sl.meta.Load()
			a0, a1, a2, a3 := sl.a0.Load(), sl.a1.Load(), sl.a2.Load(), sl.a3.Load()
			if sl.seq.Load() != s {
				continue
			}
			out = append(out, unpackEvent(s, meta, a0, a1, a2, a3))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Last returns the most recent n live events in ascending sequence
// order (fewer if the ring holds fewer).
func (r *Ring) Last(n int) []Event {
	all := r.Snapshot()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Reset discards all published events. Emits racing a Reset may
// survive it; the sequence counter is never rewound, so ordering
// stays monotonic.
func (r *Ring) Reset() {
	for i := range r.shards {
		for j := range r.shards[i] {
			r.shards[i][j].seq.Store(0)
		}
	}
}

// Consumer is a trace_pipe-style streaming cursor over a ring: each
// consumer remembers the next sequence number it wants and drains
// forward from there. Consumers are completely invisible to emitters
// — an emitter never loads consumer state, so a stalled (or dead)
// consumer cannot block or slow the emit path; it just loses the
// events the ring overwrote, and Dropped says exactly how many.
//
// A Consumer is single-goroutine state; wrap it in a lock to share.
type Consumer struct {
	r       *Ring
	next    uint64 // next sequence number to deliver
	dropped atomic.Uint64
}

// NewConsumer opens a cursor that starts at the next event emitted
// after this call (it does not replay the ring's current contents;
// use Snapshot for that).
func (r *Ring) NewConsumer() *Consumer {
	return &Consumer{r: r, next: r.seq.Load() + 1}
}

// Poll returns up to max pending events (all of them if max <= 0) in
// sequence order, advancing the cursor. Events the ring overwrote
// before this consumer got to them are counted in Dropped — the
// count is exact, from sequence arithmetic, not an estimate. Poll
// never blocks; an empty return means nothing is pending yet.
func (c *Consumer) Poll(max int) []Event {
	cur := c.r.seq.Load()
	if cur < c.next {
		return nil
	}
	capN := uint64(c.r.Cap())
	if cur-c.next >= capN {
		// The ring lapped the cursor: everything older than the
		// oldest possibly-live sequence is gone.
		oldest := cur - capN + 1
		c.dropped.Add(oldest - c.next)
		c.next = oldest
	}
	var out []Event
	for s := c.next; s <= cur; s++ {
		if max > 0 && len(out) >= max {
			break
		}
		if ev, ok := c.r.load(s); ok {
			out = append(out, ev)
			c.next = s + 1
			continue
		}
		v := c.r.slotFor(s).seq.Load()
		if v > s {
			// Overwritten while we were draining.
			c.dropped.Add(1)
			c.next = s + 1
			continue
		}
		// v <= s: the emitter that claimed s has not published yet
		// (claim order is not publish order). Stop here and retry on
		// the next poll rather than misreport an in-flight event as
		// dropped.
		break
	}
	return out
}

// Dropped returns how many events this consumer lost to ring
// wraparound. Safe to read from any goroutine.
func (c *Consumer) Dropped() uint64 { return c.dropped.Load() }

// Pending returns how many emitted events the cursor has not yet
// delivered or dropped (an instantaneous lower bound under
// concurrent emits).
func (c *Consumer) Pending() uint64 {
	cur := c.r.seq.Load()
	if cur < c.next {
		return 0
	}
	return cur - c.next + 1
}

// The package-level ring every tracepoint publishes into.
var ringPtr atomic.Pointer[Ring]

func init() {
	ringPtr.Store(NewRing(DefaultRingPerShard))
}

func ring() *Ring { return ringPtr.Load() }

// Buffer returns the current global trace ring.
func Buffer() *Ring { return ring() }
