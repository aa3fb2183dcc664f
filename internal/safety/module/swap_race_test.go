package module

import (
	"sync"
	"sync/atomic"
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// raceMod is a minimal module for the concurrency tests; Gen tells
// racing lookups apart.
type raceMod struct {
	name string
	gen  int
}

func (m *raceMod) ModuleName() string { return m.name }
func (m *raceMod) Implements() Interface {
	return Interface{Name: "race.iface", Version: 1}
}
func (m *raceMod) Level() SafetyLevel { return LevelModular }

// TestLookupDuringSwapRace hammers Lookup from many goroutines while
// another goroutine swaps the binding in a tight loop. Run under
// -race, this is the satellite-1 check: in-flight resolution must
// never observe a torn binding, a nil module, or block behind the
// swapper. Every observed module must be one of the two generations.
func TestLookupDuringSwapRace(t *testing.T) {
	r := NewRegistry()
	if err := r.Declare(Interface{Name: "race.iface", Version: 1}); err != kbase.EOK {
		t.Fatalf("Declare: %v", err)
	}
	a := &raceMod{name: "gen-a", gen: 0}
	b := &raceMod{name: "gen-b", gen: 1}
	if err := r.Bind(a); err != kbase.EOK {
		t.Fatalf("Bind: %v", err)
	}

	const lookupers = 8
	const lookupsEach = 5000
	const swaps = 2000

	var wg sync.WaitGroup
	var badModule atomic.Int64
	for i := 0; i < lookupers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < lookupsEach; j++ {
				m, err := r.Lookup("race.iface")
				if err != kbase.EOK {
					t.Errorf("Lookup mid-swap: %v", err)
					return
				}
				rm := m.(*raceMod)
				if rm != a && rm != b {
					badModule.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		mods := [2]Module{b, a}
		for s := 0; s < swaps; s++ {
			if _, err := r.Swap(mods[s%2]); err != kbase.EOK {
				t.Errorf("Swap %d: %v", s, err)
				return
			}
		}
	}()
	wg.Wait()
	if n := badModule.Load(); n != 0 {
		t.Fatalf("%d lookups observed a torn binding", n)
	}

	// Accesses must account for every lookup (atomic counter intact).
	inv := r.Inventory()
	if len(inv) != 1 {
		t.Fatalf("inventory size %d, want 1", len(inv))
	}
	if got := inv[0].Accesses; got != lookupers*lookupsEach {
		t.Fatalf("accesses = %d, want %d", got, lookupers*lookupsEach)
	}
	// swaps even count → binding back on gen-a, and the trail kept up.
	if inv[0].Module != "gen-a" {
		t.Fatalf("final module %q, want gen-a", inv[0].Module)
	}
}

// TestConcurrentSwapsSerialize checks racing swappers: the CAS loop
// must apply every swap exactly once (trail length) with the
// regression rule evaluated against the then-current module.
func TestConcurrentSwapsSerialize(t *testing.T) {
	r := NewRegistry()
	if err := r.Declare(Interface{Name: "race.iface", Version: 1}); err != kbase.EOK {
		t.Fatalf("Declare: %v", err)
	}
	if err := r.Bind(&raceMod{name: "seed"}); err != kbase.EOK {
		t.Fatalf("Bind: %v", err)
	}
	const swappers = 4
	const each = 500
	var wg sync.WaitGroup
	for i := 0; i < swappers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := &raceMod{name: "swapper", gen: i}
			for j := 0; j < each; j++ {
				if _, err := r.Swap(m); err != kbase.EOK {
					t.Errorf("Swap: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	got := 0
	for _, e := range r.Trail() {
		if e.Kind == "swap" {
			got++
		}
	}
	if got != swappers*each {
		t.Fatalf("trail records %d swaps, want %d", got, swappers*each)
	}
}
