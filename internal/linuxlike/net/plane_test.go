package net

import (
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// --- port allocator ---

func TestPortAllocMonotonicAndRecycle(t *testing.T) {
	pa := NewPortAlloc()
	a, err := pa.AllocEphemeral()
	b, err2 := pa.AllocEphemeral()
	if err != kbase.EOK || err2 != kbase.EOK {
		t.Fatalf("alloc failed: %v %v", err, err2)
	}
	if a != EphemeralBase || b != EphemeralBase+1 {
		t.Fatalf("allocation not monotonic from base: got %d, %d", a, b)
	}
	pa.Release(a)
	// Next-fit keeps moving forward rather than reusing a immediately —
	// the old monotonic behavior TIME_WAIT safety relies on.
	c, _ := pa.AllocEphemeral()
	if c != EphemeralBase+2 {
		t.Fatalf("next-fit should continue forward, got %d", c)
	}
	if pa.Free() != 16384-2 {
		t.Fatalf("free count %d, want %d", pa.Free(), 16384-2)
	}
}

func TestPortAllocExhaustionTyped(t *testing.T) {
	pa := NewPortAlloc()
	for i := 0; i < 16384; i++ {
		if _, err := pa.AllocEphemeral(); err != kbase.EOK {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := pa.AllocEphemeral(); err != kbase.EADDRINUSE {
		t.Fatalf("exhausted space returned %v, want EADDRINUSE", err)
	}
	pa.Release(EphemeralBase + 7000)
	p, err := pa.AllocEphemeral()
	if err != kbase.EOK || p != EphemeralBase+7000 {
		t.Fatalf("after release got (%d, %v), want the freed port", p, err)
	}
}

func TestPortAllocSharedRefs(t *testing.T) {
	pa := NewPortAlloc()
	// A listener on an ephemeral-range port plus two accepted children
	// sharing it: the port frees only when all three release.
	const port = EphemeralBase + 100
	pa.Acquire(port)
	pa.Acquire(port)
	pa.Acquire(port)
	pa.Release(port)
	pa.Release(port)
	if !pa.InUse(port) {
		t.Fatal("port freed while a user remains")
	}
	pa.Release(port)
	if pa.InUse(port) {
		t.Fatal("port still marked used after last release")
	}
	// Below the ephemeral base: untracked no-ops.
	pa.Acquire(80)
	if pa.InUse(80) || pa.Free() != 16384 {
		t.Fatal("well-known port leaked into the ephemeral accounting")
	}
}

// --- demux table ---

func TestDemuxTableBasics(t *testing.T) {
	d := NewDemuxTable[int]()
	k1 := FourTuple{LAddr: 1, LPort: 80, RAddr: 2, RPort: 50000}
	k2 := FourTuple{LAddr: 1, LPort: 80, RAddr: 2, RPort: 50001}
	d.Insert(k1, 11)
	d.Insert(k2, 22)
	if v, ok := d.Lookup(k1); !ok || v != 11 {
		t.Fatalf("lookup k1 = (%d, %v)", v, ok)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	d.Delete(k1)
	if _, ok := d.Lookup(k1); ok || d.Len() != 1 {
		t.Fatal("delete did not remove the binding")
	}
}

// --- backlog ---

func TestBacklogDeterministicAndBounded(t *testing.T) {
	b := NewBacklog[int](8)
	for i := 0; i < 8; i++ {
		if !b.Push(FourTuple{RAddr: Addr(i), RPort: uint16(i)}, i) {
			t.Fatalf("push %d refused below the bound", i)
		}
	}
	if b.Push(FourTuple{RAddr: 99, RPort: 99}, 99) {
		t.Fatal("push above the bound accepted")
	}
	if b.Dropped() != 1 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
	// Drain: every element exactly once, and the order is a pure
	// function of the push sequence (re-run must agree).
	drain := func() []int {
		b2 := NewBacklog[int](8)
		for i := 0; i < 8; i++ {
			b2.Push(FourTuple{RAddr: Addr(i), RPort: uint16(i)}, i)
		}
		var got []int
		for v, ok := b2.Pop(); ok; v, ok = b2.Pop() {
			got = append(got, v)
		}
		return got
	}
	first := drain()
	second := drain()
	if len(first) != 8 {
		t.Fatalf("drained %d of 8", len(first))
	}
	seen := map[int]bool{}
	for i, v := range first {
		if seen[v] || v != second[i] {
			t.Fatalf("drain not a deterministic permutation: %v vs %v", first, second)
		}
		seen[v] = true
	}
}
