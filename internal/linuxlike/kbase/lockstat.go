package kbase

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// lockstat: per-LockClass acquisition, contention, wait-time, and
// hold-time accounting, the measurement counterpart of the lockdep
// ordering validator. PR 1 made the lock hierarchy *checkable*; this
// makes it *measurable* — CONFIG_LOCK_STAT for the simulated kernel.
//
// Accounting is off by default and gated exactly like validation: the
// lock fast path pays one atomic load when lockstat is disabled. When
// enabled, contention is detected with TryLock (an uncontended
// acquisition costs no clock read for the wait side), wait time is
// the blocking duration of the fallback Lock, and hold time runs from
// acquisition to release. Counters are per-class atomics, so the
// accounting itself adds no shared lock to the paths it measures.

var lockStatEnabled atomic.Bool

// SetLockStat toggles lockstat accounting globally and returns the
// previous setting. Toggling while locks are held skews (but cannot
// corrupt) in-flight hold samples.
func SetLockStat(on bool) bool {
	return lockStatEnabled.Swap(on)
}

// LockHistBuckets is the bucket count of the per-class log2 wait/hold
// histograms: bucket i counts samples with bits.Len64(ns) == i, i.e.
// ns in [2^(i-1), 2^i) (bucket 0 is exactly ns == 0). Coarser than
// ktrace's log-linear histograms on purpose — this is the fully
// inlined lock path, so the histogram must cost one extra atomic add.
const LockHistBuckets = 65

type lockHist [LockHistBuckets]atomic.Uint64

func (h *lockHist) note(ns uint64) { h[bits.Len64(ns)].Add(1) }

func (h *lockHist) snapshot() (out [LockHistBuckets]uint64) {
	for i := range h {
		out[i] = h[i].Load()
	}
	return out
}

func (h *lockHist) reset() {
	for i := range h {
		h[i].Store(0)
	}
}

// classStats is the per-LockClass counter block. All fields are
// atomics: emitters never share a cache line dance with a stats lock.
type classStats struct {
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	waitNs       atomic.Uint64
	maxWaitNs    atomic.Uint64
	holdNs       atomic.Uint64
	maxHoldNs    atomic.Uint64
	readAcquires atomic.Uint64 // RWSem shared-side acquisitions
	waitHist     lockHist
	holdHist     lockHist
}

func (s *classStats) noteWait(d time.Duration) {
	ns := uint64(d)
	s.contended.Add(1)
	s.waitNs.Add(ns)
	storeMax(&s.maxWaitNs, ns)
	s.waitHist.note(ns)
}

func (s *classStats) noteHold(d time.Duration) {
	ns := uint64(d)
	s.holdNs.Add(ns)
	storeMax(&s.maxHoldNs, ns)
	s.holdHist.note(ns)
}

func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LockClassStats is one class's lockstat snapshot.
type LockClassStats struct {
	Class        string
	Acquisitions uint64 // exclusive acquisitions (incl. RWSem write side)
	ReadAcquires uint64 // RWSem shared-side acquisitions
	Contended    uint64 // acquisitions that had to block
	WaitNs       uint64 // total blocking time
	MaxWaitNs    uint64
	HoldNs       uint64 // total exclusive hold time
	MaxHoldNs    uint64
	// Log2 latency distributions (see LockHistBuckets): WaitHist over
	// blocking waits, HoldHist over exclusive holds.
	WaitHist [LockHistBuckets]uint64
	HoldHist [LockHistBuckets]uint64
}

// LockStats returns a snapshot for every class that has seen at least
// one acquisition since the last reset, sorted by class name.
func LockStats() []LockClassStats {
	classMu.Lock()
	snap := make([]*LockClass, len(classes))
	copy(snap, classes)
	classMu.Unlock()
	var out []LockClassStats
	for _, c := range snap {
		s := &c.stats
		st := LockClassStats{
			Class:        c.name,
			Acquisitions: s.acquisitions.Load(),
			ReadAcquires: s.readAcquires.Load(),
			Contended:    s.contended.Load(),
			WaitNs:       s.waitNs.Load(),
			MaxWaitNs:    s.maxWaitNs.Load(),
			HoldNs:       s.holdNs.Load(),
			MaxHoldNs:    s.maxHoldNs.Load(),
			WaitHist:     s.waitHist.snapshot(),
			HoldHist:     s.holdHist.snapshot(),
		}
		if st.Acquisitions == 0 && st.ReadAcquires == 0 {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// ResetLockStats zeroes every class's counters.
func ResetLockStats() {
	classMu.Lock()
	snap := make([]*LockClass, len(classes))
	copy(snap, classes)
	classMu.Unlock()
	for _, c := range snap {
		s := &c.stats
		s.acquisitions.Store(0)
		s.contended.Store(0)
		s.waitNs.Store(0)
		s.maxWaitNs.Store(0)
		s.holdNs.Store(0)
		s.maxHoldNs.Store(0)
		s.readAcquires.Store(0)
		s.waitHist.reset()
		s.holdHist.reset()
	}
}

// The per-primitive instrumentation lives inline in lock.go so the
// lockstat-disabled path stays a direct sync.Mutex call with one
// atomic load in front of it — no interface dispatch, no closure.
