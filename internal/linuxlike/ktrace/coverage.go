package ktrace

import (
	"math/bits"
	"sync/atomic"
)

// Tracepoint-set coverage: a fixed-size bitmap with one bit per
// "subsystem:op" identity, set on every recorded event while coverage
// collection is enabled. This is the kcov-shaped signal a fuzzing
// campaign feeds on — "did this input make the kernel do something it
// had not done before?" — landed in ktrace because the ring already
// sees every event. The bitmap is a pure value type with set/merge/
// count, so a fuzzer can keep a cumulative map and diff per-input
// maps against it without coordination.

// CoverBits is the bitmap width. Identities are hashed into it, so
// distinct tracepoints can collide; at ~40 declared tracepoints over
// 4096 bits collisions are vanishingly unlikely, and a collision only
// under-reports novelty (safe direction for a fuzzer).
const CoverBits = 4096

// CoverBitmap is a fixed-size coverage bitmap. The zero value is
// empty and ready to use.
type CoverBitmap [CoverBits / 64]uint64

// CoverIndex maps a "subsystem:op" identity to its bitmap bit.
func CoverIndex(name string) uint32 {
	return uint32(fnv1a(name) % CoverBits)
}

// Set marks one bit.
func (b *CoverBitmap) Set(idx uint32) {
	idx %= CoverBits
	b[idx/64] |= 1 << (idx % 64)
}

// Has reports whether a bit is set.
func (b *CoverBitmap) Has(idx uint32) bool {
	idx %= CoverBits
	return b[idx/64]&(1<<(idx%64)) != 0
}

// Merge ORs another bitmap into this one.
func (b *CoverBitmap) Merge(o *CoverBitmap) {
	for i := range b {
		b[i] |= o[i]
	}
}

// NewBits counts the bits set in o that this bitmap does not have —
// the novelty signal, without mutating either side.
func (b *CoverBitmap) NewBits(o *CoverBitmap) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(o[i] &^ b[i])
	}
	return n
}

// Count returns the number of set bits.
func (b *CoverBitmap) Count() int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(b[i])
	}
	return n
}

// The global collector: emit marks a bit here when coverage is on.
// Word-atomic with a read-before-CAS fast path, so the steady state
// (bit already set) is one load.
var (
	coverOn    atomic.Bool
	coverWords [CoverBits / 64]atomic.Uint64
)

func coverMark(idx uint32) {
	w := &coverWords[(idx%CoverBits)/64]
	bit := uint64(1) << (idx % 64)
	for {
		cur := w.Load()
		if cur&bit != 0 {
			return
		}
		if w.CompareAndSwap(cur, cur|bit) {
			return
		}
	}
}

// EnableCoverage starts marking the global bitmap on every recorded
// event (the tracepoint must still be enabled for its events to
// record). Pair with DisableCoverage.
func EnableCoverage() { coverOn.Store(true) }

// DisableCoverage stops collection; the bitmap keeps its bits.
func DisableCoverage() { coverOn.Store(false) }

// ResetCoverage clears the global bitmap.
func ResetCoverage() {
	for i := range coverWords {
		coverWords[i].Store(0)
	}
}

// CoverageSnapshot copies the global bitmap into a value the caller
// owns.
func CoverageSnapshot() CoverBitmap {
	var b CoverBitmap
	for i := range coverWords {
		b[i] = coverWords[i].Load()
	}
	return b
}
