package gate

import (
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// TestFaultHookSeesEpoch checks the mechanism under the compartment
// policy: a recovered panic quarantines the gate before the hook runs,
// the hook receives the epoch of the fault, and Open advances it.
func TestFaultHookSeesEpoch(t *testing.T) {
	var got []uint64
	var g *Gate
	g = New("epoch-test", func(_ *kbase.Task, _ string, epoch uint64, _ any) {
		if g.State() != Quarantined {
			t.Errorf("fault hook ran in state %v, want quarantined", g.State())
		}
		got = append(got, epoch)
	})
	task := kbase.NewTask()
	boom := func() kbase.Errno { panic("boom") }
	if err := g.Do(task, "boom", boom); err != kbase.EFAULT {
		t.Fatalf("Do = %v, want EFAULT", err)
	}
	if err := g.Close(Restarting, 0); err != kbase.EOK {
		t.Fatalf("Close(Restarting) = %v", err)
	}
	if epoch := g.Open(); epoch != 1 {
		t.Fatalf("Open = epoch %d, want 1", epoch)
	}
	if err := g.Do(task, "boom", boom); err != kbase.EFAULT {
		t.Fatalf("Do = %v, want EFAULT", err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("fault epochs = %v, want [0 1]", got)
	}
}

// TestCrossingAllocFree pins the healthy crossing: no lock-protected
// state, no heap allocation, the crossed closure stays on the stack.
func TestCrossingAllocFree(t *testing.T) {
	g := New("alloc-test", nil)
	task := kbase.NewTask()
	var n int
	if allocs := testing.AllocsPerRun(200, func() {
		g.Do(task, "op", func() kbase.Errno { n++; return kbase.EOK })
	}); allocs != 0 {
		t.Fatalf("Do: %.1f allocs per crossing, want 0", allocs)
	}
}

// BenchmarkGateCrossing measures one empty crossing of a healthy gate.
func BenchmarkGateCrossing(b *testing.B) {
	g := New("bench", nil)
	task := kbase.NewTask()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Do(task, "op", func() kbase.Errno { return kbase.EOK })
	}
}
