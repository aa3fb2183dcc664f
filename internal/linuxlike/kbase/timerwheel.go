package kbase

import "sync"

// Hierarchical timer wheel, in the shape of the kernel's timers: a
// stack of levels, each 64 slots wide, where level L buckets deadlines
// at a granularity of 64^L jiffies. Arming, canceling and re-arming a
// timer are O(1); advancing the clock touches only the slots that
// expire, cascading higher-level buckets down exactly when the
// lower-level wheel wraps. That makes a million idle connections cost
// nothing per tick — an unarmed timer is not in any slot — and a
// retransmission timer costs one unlink/link per re-arm instead of a
// sorted walk of every connection.
//
// Unlike the kernel's lazy wheel (which fires high-level timers up to
// a granularity early), this wheel cascades entries to level 0 before
// their deadline, so every timer fires at exactly its armed jiffy.
// The simulator's protocol machinery depends on exact deadlines: the
// differential sweep would diverge on a timer that fired a jiffy
// early.
//
// Timers are intrusive: the owner embeds a WheelTimer in its own
// struct, so arm/cancel allocate nothing. The Owner field carries the
// typed back-pointer (a *TCB, a *Conn) handed to the fire callback.
//
// Arm and Cancel are safe for concurrent use, including from inside a
// fire callback: Advance detaches each jiffy's expiring timers under
// the lock, then fires them with the lock released, so callbacks
// re-arm freely (the RTO pattern). Advance itself must not be called
// concurrently with another Advance, and the OnCascade hook runs with
// the lock held.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelLevels = 6              // horizon 64^6 ≈ 6.9e10 jiffies
	wheelMask   = wheelSlots - 1
)

// WheelTimer is one intrusive timer node. Embed it (by value) in the
// timed object and pass its address to Arm/Cancel. The zero value is
// an unarmed timer.
type WheelTimer[T any] struct {
	next, prev *WheelTimer[T]
	head       *wheelSlot[T] // non-nil while armed
	expiry     uint64
	// Owner is the typed back-pointer handed to the fire callback.
	Owner T
}

// wheelSlot is one bucket: a doubly-linked list of timers.
type wheelSlot[T any] struct {
	list *WheelTimer[T] // insertion-ordered: list is the oldest
	tail *WheelTimer[T]
}

func (s *wheelSlot[T]) push(t *WheelTimer[T]) {
	t.head = s
	t.next = nil
	t.prev = s.tail
	if s.tail != nil {
		s.tail.next = t
	} else {
		s.list = t
	}
	s.tail = t
}

func (s *wheelSlot[T]) unlink(t *WheelTimer[T]) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		s.list = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		s.tail = t.prev
	}
	t.next, t.prev, t.head = nil, nil, nil
}

// WheelStats counts wheel activity since creation.
type WheelStats struct {
	Arms     uint64 // Arm calls (including re-arms)
	Cancels  uint64 // Cancel calls that removed an armed timer
	Fired    uint64 // timers delivered to the fire callback
	Cascades uint64 // non-empty higher-level slots pulled down
	Moved    uint64 // timers moved by cascades
}

// TimerWheel is the hierarchical wheel. Create with NewTimerWheel.
type TimerWheel[T any] struct {
	mu     sync.Mutex
	now    uint64 // all timers with expiry <= now have fired
	armed  int
	levels [wheelLevels][wheelSlots]wheelSlot[T]
	stats  WheelStats
	firing []*WheelTimer[T] // Advance's scratch batch, reused across calls

	// OnCascade, when set, observes each non-empty cascade (level,
	// timers moved). It runs with the wheel lock held: emit a
	// tracepoint or record a histogram, nothing more.
	OnCascade func(level, moved int)
}

// NewTimerWheel creates a wheel whose clock reads now; timers armed at
// expiry <= now are clamped to now+1.
func NewTimerWheel[T any](now uint64) *TimerWheel[T] {
	return &TimerWheel[T]{now: now}
}

// Len returns the number of armed timers.
func (w *TimerWheel[T]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.armed
}

// slotFor places an expiry relative to the wheel clock: level 0 holds
// deadlines within 64 jiffies, level L within 64^(L+1). Deltas beyond
// the horizon park at the top level and re-cascade until they drain.
// All arithmetic is mod 2^64, so a clock wrap mid-horizon places (and
// later fires) timers correctly.
func (w *TimerWheel[T]) slotFor(expiry uint64) *wheelSlot[T] {
	delta := expiry - w.now
	for lvl := 0; lvl < wheelLevels-1; lvl++ {
		if delta <= uint64(wheelSlots)<<(wheelBits*lvl) {
			return &w.levels[lvl][(expiry>>(wheelBits*lvl))&wheelMask]
		}
	}
	lvl := wheelLevels - 1
	return &w.levels[lvl][(expiry>>(wheelBits*lvl))&wheelMask]
}

// Arm schedules (or re-schedules) t to fire at expiry. Expiries at or
// before the wheel clock clamp to the next jiffy — a timer can never
// fire in the past, only on the next Advance.
func (w *TimerWheel[T]) Arm(t *WheelTimer[T], expiry uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armLocked(t, expiry)
}

func (w *TimerWheel[T]) armLocked(t *WheelTimer[T], expiry uint64) {
	if t.head != nil {
		if t.expiry == expiry {
			return // already armed there
		}
		t.head.unlink(t)
		w.armed--
	}
	if expiry-w.now == 0 || expiry-w.now > 1<<63 {
		expiry = w.now + 1 // clamp past/now deadlines to the next jiffy
	}
	t.expiry = expiry
	w.slotFor(expiry).push(t)
	w.armed++
	w.stats.Arms++
}

// Cancel removes t from the wheel if armed. Safe on an unarmed timer.
func (w *TimerWheel[T]) Cancel(t *WheelTimer[T]) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.head == nil {
		return
	}
	t.head.unlink(t)
	w.armed--
	w.stats.Cancels++
}

// cascade pulls one higher-level slot down: every timer re-inserts at
// its exact expiry, landing one or more levels lower. The list is
// detached wholesale first — a beyond-horizon timer that re-parks in
// the same slot must land on a fresh list, not splice into the walk.
func (w *TimerWheel[T]) cascade(lvl int, idx uint64) {
	s := &w.levels[lvl][idx]
	t := s.list
	if t == nil {
		return
	}
	s.list, s.tail = nil, nil
	moved := 0
	for t != nil {
		next := t.next
		t.next, t.prev, t.head = nil, nil, nil
		w.slotFor(t.expiry).push(t)
		moved++
		t = next
	}
	w.stats.Cascades++
	w.stats.Moved += uint64(moved)
	if w.OnCascade != nil {
		w.OnCascade(lvl, moved)
	}
}

// Advance moves the wheel clock to target, firing every timer whose
// expiry falls in (now, target] in deadline order (insertion order
// within a jiffy). Each jiffy's expiring timers are detached under the
// lock and fired with the lock released, so the fire callback may
// Arm or Cancel freely; a re-arm at or before the current jiffy lands
// on the next one. A timer canceled by an earlier callback in the same
// jiffy's batch still fires (it had already expired) — owners guard
// with their own state, as the TCB's closed check does. Returns the
// number fired.
func (w *TimerWheel[T]) Advance(target uint64, fire func(owner T)) int {
	w.mu.Lock()
	if target-w.now > 1<<63 {
		w.mu.Unlock()
		return 0 // target is behind the wheel clock: nothing to do
	}
	fired := 0
	for w.now != target {
		if w.armed == 0 {
			// Empty wheel: slot state is derived from absolute
			// expiries, so the clock can jump.
			w.now = target
			break
		}
		w.now++
		j := w.now
		// Cascade every level whose lower wheel just wrapped. Level L
		// wraps when the low 6L bits of the clock hit zero.
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if j&((1<<(wheelBits*lvl))-1) != 0 {
				break
			}
			w.cascade(lvl, (j>>(wheelBits*lvl))&wheelMask)
		}
		// Detach the level-0 slot's expired timers. Cascading keeps the
		// invariant that everything here expires at exactly j; entries
		// at j+64k (same slot, later lap) are skipped by the guard.
		batch := w.firing[:0]
		s := &w.levels[0][j&wheelMask]
		for t := s.list; t != nil; {
			next := t.next
			if t.expiry == j {
				s.unlink(t)
				w.armed--
				batch = append(batch, t)
			}
			t = next
		}
		if len(batch) == 0 {
			continue
		}
		w.stats.Fired += uint64(len(batch))
		fired += len(batch)
		w.mu.Unlock()
		for _, t := range batch {
			fire(t.Owner)
		}
		w.mu.Lock()
		w.firing = batch[:0]
	}
	w.mu.Unlock()
	return fired
}
