package net

// Sharded accept backlog. A listener under connection churn takes
// every SYN and every accept through one queue; sharding by the
// child's 4-tuple spreads that pressure the same way the demux table
// spreads rx lookups, and bounding it gives SYN floods a drop point
// instead of unbounded memory. Pop rotates across shards so no shard
// can starve; both push and pop are deterministic functions of the
// push sequence, which the differential sweep relies on.

const (
	backlogShards     = 4
	defaultBacklogMax = 65536
)

type backlogShard[V any] struct {
	buf  []V
	head int
}

// Backlog is a sharded bounded queue of not-yet-accepted children.
type Backlog[V any] struct {
	shards  [backlogShards]backlogShard[V]
	cursor  int
	size    int
	max     int
	dropped uint64
}

// NewBacklog creates a backlog bounded at max entries (0 uses the
// default of 65536).
func NewBacklog[V any](max int) *Backlog[V] {
	if max <= 0 {
		max = defaultBacklogMax
	}
	return &Backlog[V]{max: max}
}

// Dropped returns how many pushes the bound has refused.
func (b *Backlog[V]) Dropped() uint64 { return b.dropped }

// Push queues a child on the shard its tuple hashes to. Returns false
// (and counts a drop) when the backlog is full — the caller resets the
// connection, as a real stack would.
func (b *Backlog[V]) Push(key FourTuple, v V) bool {
	if b.size >= b.max {
		b.dropped++
		return false
	}
	s := &b.shards[key.hash()%backlogShards]
	s.buf = append(s.buf, v)
	b.size++
	return true
}

// Pop dequeues one child, rotating across shards round-robin.
func (b *Backlog[V]) Pop() (V, bool) {
	var zero V
	if b.size == 0 {
		return zero, false
	}
	for i := 0; i < backlogShards; i++ {
		s := &b.shards[(b.cursor+i)%backlogShards]
		if s.head < len(s.buf) {
			v := s.buf[s.head]
			s.buf[s.head] = zero // drop the reference for the GC
			s.head++
			if s.head == len(s.buf) {
				s.buf = s.buf[:0]
				s.head = 0
			}
			b.cursor = (b.cursor + i + 1) % backlogShards
			b.size--
			return v, true
		}
	}
	return zero, false
}
