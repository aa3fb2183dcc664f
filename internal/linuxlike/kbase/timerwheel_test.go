package kbase

import (
	"sync"
	"testing"
)

// fireLog collects (owner, jiffy) pairs from Advance callbacks.
type fireLog struct {
	at map[int]uint64
}

func advanceTo(w *TimerWheel[int], log *fireLog, target uint64) {
	// Step one jiffy at a time, recording the wheel clock at each
	// fire, the way the simulator drives it.
	for now := w.Now(); now != target; now++ {
		j := now + 1
		w.Advance(j, func(id int) { log.at[id] = j })
	}
}

func TestWheelExactExpiry(t *testing.T) {
	// Deltas straddling every tier boundary must fire at exactly their
	// armed jiffy — the protocol machinery depends on exact deadlines.
	deltas := []uint64{1, 2, 63, 64, 65, 127, 4095, 4096, 4097, 262143, 262144, 262145, 1 << 19}
	for _, start := range []uint64{0, 1, 63, 64, 1000003} {
		w := NewTimerWheel[int](start)
		log := &fireLog{at: map[int]uint64{}}
		timers := make([]WheelTimer[int], len(deltas))
		for i, d := range deltas {
			timers[i].Owner = i
			w.Arm(&timers[i], start+d)
		}
		advanceTo(w, log, start+(1<<19)+1)
		for i, d := range deltas {
			if got, ok := log.at[i]; !ok || got != start+d {
				t.Fatalf("start=%d delta=%d: fired at %d (ok=%v), want %d", start, d, got, ok, start+d)
			}
		}
		if w.Len() != 0 {
			t.Fatalf("start=%d: %d timers left armed", start, w.Len())
		}
	}
}

func TestWheelCascadeCorrectnessRandom(t *testing.T) {
	// Seeded soak: hundreds of timers at random deadlines, none may
	// fire early, late, twice, or never.
	rng := NewRng(42)
	const n = 500
	const horizon = 300000
	w := NewTimerWheel[int](0)
	log := &fireLog{at: map[int]uint64{}}
	timers := make([]WheelTimer[int], n)
	want := make([]uint64, n)
	for i := range timers {
		timers[i].Owner = i
		want[i] = 1 + uint64(rng.Intn(horizon))
		w.Arm(&timers[i], want[i])
	}
	fired := 0
	for j := uint64(1); j <= horizon; j++ {
		fired += w.Advance(j, func(id int) {
			if prev, dup := log.at[id]; dup {
				t.Fatalf("timer %d fired twice (at %d and %d)", id, prev, j)
			}
			log.at[id] = j
		})
	}
	if fired != n {
		t.Fatalf("fired %d of %d timers", fired, n)
	}
	for i := range timers {
		if log.at[i] != want[i] {
			t.Fatalf("timer %d fired at %d, want %d", i, log.at[i], want[i])
		}
	}
	st := w.Stats()
	if st.Cascades == 0 || st.Moved == 0 {
		t.Fatalf("expected cascades over a %d-jiffy horizon, got %+v", uint64(horizon), st)
	}
}

func TestWheelCancelAndRearm(t *testing.T) {
	w := NewTimerWheel[int](0)
	log := &fireLog{at: map[int]uint64{}}
	var a, b, c WheelTimer[int]
	a.Owner, b.Owner, c.Owner = 0, 1, 2
	w.Arm(&a, 10)
	w.Arm(&b, 10)
	w.Arm(&c, 100)
	w.Cancel(&b)  // canceled before expiry: never fires
	w.Arm(&c, 20) // re-arm moves the deadline
	w.Arm(&a, 10) // re-arm at the same expiry is a no-op
	advanceTo(w, log, 200)
	if got := log.at[0]; got != 10 {
		t.Fatalf("a fired at %d, want 10", got)
	}
	if _, ok := log.at[1]; ok {
		t.Fatal("canceled timer fired")
	}
	if got := log.at[2]; got != 20 {
		t.Fatalf("re-armed c fired at %d, want 20", got)
	}
	// Cancel of an unarmed timer is a no-op.
	w.Cancel(&b)
}

func TestWheelPastDeadlineClampsToNextJiffy(t *testing.T) {
	w := NewTimerWheel[int](1000)
	log := &fireLog{at: map[int]uint64{}}
	var a, b WheelTimer[int]
	a.Owner, b.Owner = 0, 1
	w.Arm(&a, 1000) // "now": fires on the next advance
	w.Arm(&b, 50)   // long past: same clamp
	advanceTo(w, log, 1002)
	if log.at[0] != 1001 || log.at[1] != 1001 {
		t.Fatalf("clamped timers fired at %v, want both 1001", log.at)
	}
}

func TestWheelRearmFromFireCallback(t *testing.T) {
	// A periodic timer re-armed from its own fire callback — the RTO
	// re-arm pattern — must keep exact periods, including re-arms that
	// land back in the currently-firing slot region.
	w := NewTimerWheel[int](0)
	var tm WheelTimer[int]
	tm.Owner = 7
	var fires []uint64
	period := uint64(64) // same level-0 slot every time
	w.Arm(&tm, period)
	for j := uint64(1); j <= 5*period; j++ {
		w.Advance(j, func(id int) {
			fires = append(fires, j)
			w.Arm(&tm, j+period) // callbacks run unlocked: Arm is safe
		})
	}
	if len(fires) != 5 {
		t.Fatalf("got %d fires %v, want 5", len(fires), fires)
	}
	for i, f := range fires {
		if f != uint64(i+1)*period {
			t.Fatalf("fire %d at %d, want %d", i, f, uint64(i+1)*period)
		}
	}
}

func TestWheelJiffyWraparound(t *testing.T) {
	// The wheel survives the uint64 clock wrapping mid-horizon:
	// deltas and slot indices are all mod-2^64.
	start := ^uint64(0) - 100
	w := NewTimerWheel[int](start)
	log := &fireLog{at: map[int]uint64{}}
	deltas := []uint64{1, 50, 100, 101, 150, 4097} // some land after the wrap
	timers := make([]WheelTimer[int], len(deltas))
	for i, d := range deltas {
		timers[i].Owner = i
		w.Arm(&timers[i], start+d)
	}
	for i := uint64(1); i <= 5000; i++ {
		j := start + i
		w.Advance(j, func(id int) { log.at[id] = j })
	}
	for i, d := range deltas {
		if log.at[i] != start+d {
			t.Fatalf("delta %d across wrap: fired at %d, want %d", d, log.at[i], start+d)
		}
	}
}

func TestWheelEmptyFastPathKeepsPlacement(t *testing.T) {
	// An empty wheel jumps its clock; timers armed after the jump must
	// still fire exactly.
	w := NewTimerWheel[int](0)
	w.Advance(1<<40, func(int) { t.Fatal("fired on empty wheel") })
	log := &fireLog{at: map[int]uint64{}}
	var tm WheelTimer[int]
	w.Arm(&tm, 1<<40+77)
	advanceTo(w, log, 1<<40+100)
	if log.at[0] != 1<<40+77 {
		t.Fatalf("fired at %d, want %d", log.at[0], uint64(1<<40+77))
	}
}

func TestWheelConcurrentArmCancelRace(t *testing.T) {
	// Arm/cancel/re-arm from multiple goroutines while another
	// advances: -race coverage of the wheel lock. Fired counts can't
	// be asserted exactly under racing cancels; the invariant is that
	// every timer ends either fired or canceled and the wheel drains.
	w := NewTimerWheel[int](0)
	const workers = 4
	const perWorker = 200
	var fired sync.Map
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := uint64(1); j <= 3000; j++ {
			w.Advance(j, func(id int) { fired.Store(id, j) })
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := NewRng(uint64(g) + 9)
			timers := make([]WheelTimer[int], perWorker)
			for i := range timers {
				timers[i].Owner = g*perWorker + i
				w.Arm(&timers[i], uint64(1+rng.Intn(2000)))
			}
			for i := range timers {
				switch rng.Intn(3) {
				case 0:
					w.Cancel(&timers[i])
				case 1:
					w.Arm(&timers[i], uint64(1+rng.Intn(2500)))
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	// Drain whatever is still armed (re-arms may have landed beyond
	// the advancing goroutine's horizon).
	w.Advance(1<<20, func(id int) { fired.Store(id, uint64(0)) })
	if w.Len() != 0 {
		t.Fatalf("%d timers still armed after full drain", w.Len())
	}
}
