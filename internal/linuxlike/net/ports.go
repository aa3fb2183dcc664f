package net

import "safelinux/internal/linuxlike/kbase"

// Ephemeral port allocation. The legacy scan walked the connection
// table per candidate port — quadratic under churn — and spun forever
// once a host's 16384 ephemeral ports were all in use. The allocator
// is a bitmap with reference counts: O(1) acquire/release, next-fit
// allocation from a moving hint (preserving the old monotonic
// allocation order that the differential sweep pins), and a typed
// EADDRINUSE instead of a livelock when the space is exhausted.
//
// Reference counts, not plain bits: accepted children share their
// listener's local port, so a port is free only when every user of it
// is gone. Ports below the ephemeral base (well-known listener ports)
// are not tracked — Acquire/Release on them are no-ops, and duplicate
// listen detection stays with the listener table.

// EphemeralBase is the first ephemeral port, as in Linux's default
// ip_local_port_range upper band.
const EphemeralBase = 49152

const ephemeralCount = 1<<16 - EphemeralBase // 16384

// PortAlloc tracks one host's ephemeral port space.
type PortAlloc struct {
	bitmap [ephemeralCount / 64]uint64
	refs   [ephemeralCount]uint32
	hint   uint32 // next slot AllocEphemeral tries (relative index)
	used   int    // slots with refs > 0
}

// NewPortAlloc creates an allocator with the whole range free.
func NewPortAlloc() *PortAlloc { return &PortAlloc{} }

// Free returns the number of unused ephemeral ports.
func (pa *PortAlloc) Free() int { return ephemeralCount - pa.used }

// AllocEphemeral claims the next free ephemeral port, scanning from
// the hint so allocation stays monotonic until the space wraps.
// Returns EADDRINUSE when every port is in use.
func (pa *PortAlloc) AllocEphemeral() (uint16, kbase.Errno) {
	if pa.used == ephemeralCount {
		return 0, kbase.EADDRINUSE
	}
	idx := pa.hint % ephemeralCount
	for scanned := 0; scanned < ephemeralCount; {
		if idx&63 == 0 && pa.bitmap[idx>>6] == ^uint64(0) {
			// Fully-allocated word: skip it whole.
			idx = (idx + 64) % ephemeralCount
			scanned += 64
			continue
		}
		if pa.bitmap[idx>>6]&(1<<(idx&63)) == 0 {
			pa.bitmap[idx>>6] |= 1 << (idx & 63)
			pa.refs[idx] = 1
			pa.used++
			pa.hint = (idx + 1) % ephemeralCount
			return uint16(EphemeralBase + idx), kbase.EOK
		}
		idx = (idx + 1) % ephemeralCount
		scanned++
	}
	return 0, kbase.EADDRINUSE
}

// Acquire adds a reference to a port — a listener binding it, or an
// accepted child sharing its listener's port. No-op below the base.
func (pa *PortAlloc) Acquire(port uint16) {
	if port < EphemeralBase {
		return
	}
	i := port - EphemeralBase
	pa.refs[i]++
	if pa.refs[i] == 1 {
		pa.bitmap[i>>6] |= 1 << (i & 63)
		pa.used++
	}
}

// Release drops one reference; the port returns to the free pool when
// the last user is gone. No-op below the base or on a free port.
func (pa *PortAlloc) Release(port uint16) {
	if port < EphemeralBase {
		return
	}
	i := port - EphemeralBase
	if pa.refs[i] == 0 {
		return
	}
	pa.refs[i]--
	if pa.refs[i] == 0 {
		pa.bitmap[i>>6] &^= 1 << (i & 63)
		pa.used--
	}
}
