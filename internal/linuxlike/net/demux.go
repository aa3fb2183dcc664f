package net

import "sync"

// Connection demux: the rx fast path's first touch. The legacy layout
// (map[port]map[connKey]) made lookup two map hops behind a structure
// the tick loop also had to walk and sort; at 1M connections the walk
// dominated every jiffy. The demux table is a flat hash over the full
// 4-tuple, sharded like the bufcache so the shard lock an rx packet
// takes is uncontended 15/16ths of the time.
//
// Nothing on the protocol path iterates the table — lookups are O(1)
// by tuple, and reaping goes through the owner's dead-list, not a
// scan. ForEach exists for reset/metrics paths only; its order is not
// deterministic and protocol code must not depend on it.

// demuxShards must be a power of two; 16 matches the bufcache.
const demuxShards = 16

// FourTuple identifies one connection: local address/port, remote
// address/port.
type FourTuple struct {
	LAddr Addr
	LPort uint16
	RAddr Addr
	RPort uint16
}

// hash is FNV-1a over the tuple's 12 bytes.
func (k FourTuple) hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	mix(byte(k.LAddr))
	mix(byte(k.LAddr >> 8))
	mix(byte(k.LAddr >> 16))
	mix(byte(k.LAddr >> 24))
	mix(byte(k.LPort))
	mix(byte(k.LPort >> 8))
	mix(byte(k.RAddr))
	mix(byte(k.RAddr >> 8))
	mix(byte(k.RAddr >> 16))
	mix(byte(k.RAddr >> 24))
	mix(byte(k.RPort))
	mix(byte(k.RPort >> 8))
	return h
}

type demuxShard[V any] struct {
	mu sync.Mutex
	m  map[FourTuple]V
}

// DemuxTable is a sharded 4-tuple → connection map. V is the owner's
// connection type (*Socket for the legacy stack, a *Conn for safetcp).
type DemuxTable[V any] struct {
	shards [demuxShards]demuxShard[V]
}

// NewDemuxTable creates an empty table.
func NewDemuxTable[V any]() *DemuxTable[V] {
	d := &DemuxTable[V]{}
	for i := range d.shards {
		d.shards[i].m = make(map[FourTuple]V)
	}
	return d
}

func (d *DemuxTable[V]) shard(k FourTuple) *demuxShard[V] {
	return &d.shards[k.hash()&(demuxShards-1)]
}

// Lookup finds the connection for a tuple.
func (d *DemuxTable[V]) Lookup(k FourTuple) (V, bool) {
	s := d.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Insert binds a tuple to a connection, replacing any previous binding.
func (d *DemuxTable[V]) Insert(k FourTuple, v V) {
	s := d.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Delete removes a tuple's binding if present.
func (d *DemuxTable[V]) Delete(k FourTuple) {
	s := d.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Len returns the number of bound tuples.
func (d *DemuxTable[V]) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
