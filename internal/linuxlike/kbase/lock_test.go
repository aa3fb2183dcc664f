package kbase

import (
	"strings"
	"sync"
	"testing"
)

func TestLockOrderInversionDetected(t *testing.T) {
	Validator().Reset()
	ca := NewLockClass("test-order-a")
	cb := NewLockClass("test-order-b")
	la, lb := NewKMutex(ca), NewKMutex(cb)
	t1, t2 := NewTask(), NewTask()

	// Establish a->b.
	la.Lock(t1)
	lb.Lock(t1)
	lb.Unlock(t1)
	la.Unlock(t1)

	// Invert: b->a must be reported.
	lb.Lock(t2)
	la.Lock(t2)
	la.Unlock(t2)
	lb.Unlock(t2)

	reports := Validator().Reports()
	found := false
	for _, r := range reports {
		if strings.Contains(r, "possible deadlock") &&
			strings.Contains(r, "test-order-a") && strings.Contains(r, "test-order-b") {
			found = true
		}
	}
	if !found {
		t.Fatalf("lock inversion not reported; reports = %v", reports)
	}
}

func TestLockSameOrderNotReported(t *testing.T) {
	Validator().Reset()
	ca := NewLockClass("test-same-a")
	cb := NewLockClass("test-same-b")
	la, lb := NewKMutex(ca), NewKMutex(cb)
	task := NewTask()
	for i := 0; i < 3; i++ {
		la.Lock(task)
		lb.Lock(task)
		lb.Unlock(task)
		la.Unlock(task)
	}
	if reports := Validator().Reports(); len(reports) != 0 {
		t.Fatalf("consistent ordering reported: %v", reports)
	}
}

func TestUnlockNotHeldReported(t *testing.T) {
	Validator().Reset()
	c := NewLockClass("test-unheld")
	task := NewTask()
	// Release without acquire at the validator level.
	globalValidator.release(task, c)
	reports := Validator().Reports()
	if len(reports) != 1 || !strings.Contains(reports[0], "not held") {
		t.Fatalf("unlock-not-held not reported: %v", reports)
	}
}

func TestValidatorTracksDepthAndEdges(t *testing.T) {
	Validator().Reset()
	ca := NewLockClass("depth-a")
	cb := NewLockClass("depth-b")
	cc := NewLockClass("depth-c")
	la, lb, lc := NewSpinLock(ca), NewSpinLock(cb), NewSpinLock(cc)
	task := NewTask()
	la.Lock(task)
	lb.Lock(task)
	lc.Lock(task)
	lc.Unlock(task)
	lb.Unlock(task)
	la.Unlock(task)
	if d := Validator().MaxDepth(); d != 3 {
		t.Fatalf("MaxDepth = %d, want 3", d)
	}
	edges := Validator().OrderingEdges()
	want := []string{"depth-a->depth-b", "depth-a->depth-c", "depth-b->depth-c"}
	for _, w := range want {
		found := false
		for _, e := range edges {
			if e == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge %q missing from %v", w, edges)
		}
	}
}

func TestLockValidationToggle(t *testing.T) {
	Validator().Reset()
	prev := SetLockValidation(false)
	defer SetLockValidation(prev)
	ca := NewLockClass("toggle-a")
	cb := NewLockClass("toggle-b")
	la, lb := NewKMutex(ca), NewKMutex(cb)
	task := NewTask()
	la.Lock(task)
	lb.Lock(task)
	lb.Unlock(task)
	la.Unlock(task)
	lb.Lock(task)
	la.Lock(task)
	la.Unlock(task)
	lb.Unlock(task)
	if reports := Validator().Reports(); len(reports) != 0 {
		t.Fatalf("validation disabled but reports recorded: %v", reports)
	}
}

func TestRWSemSharedReaders(t *testing.T) {
	Validator().Reset()
	s := NewRWSem(NewLockClass("rwsem-test"))
	var wg sync.WaitGroup
	hits := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := NewTask()
			s.DownRead(task)
			hits <- struct{}{}
			s.UpRead(task)
		}()
	}
	wg.Wait()
	if len(hits) != 4 {
		t.Fatalf("readers completed = %d, want 4", len(hits))
	}
}

func TestNewLockClassDedup(t *testing.T) {
	a := NewLockClass("dedup-class")
	b := NewLockClass("dedup-class")
	if a != b {
		t.Fatalf("same-name lock classes not deduplicated")
	}
	if a.Name() != "dedup-class" {
		t.Fatalf("Name = %q", a.Name())
	}
}

// TestValidatorConcurrentTasks: tasks on several goroutines take two
// classes in one order, each through its own held stack, and report
// nothing; a planted inversion on yet another task is still reported.
// Meaningful under -race.
func TestValidatorConcurrentTasks(t *testing.T) {
	Validator().Reset()
	ca := NewLockClass("test-conc-a")
	cb := NewLockClass("test-conc-b")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := NewTask()
			la, lb := NewKMutex(ca), NewKMutex(cb)
			for i := 0; i < 200; i++ {
				la.Lock(task)
				lb.Lock(task)
				lb.Unlock(task)
				la.Unlock(task)
			}
		}()
	}
	wg.Wait()
	if reports := Validator().Reports(); len(reports) != 0 {
		t.Fatalf("consistent ordering reported: %v", reports)
	}
	la, lb, task := NewKMutex(ca), NewKMutex(cb), NewTask()
	lb.Lock(task)
	la.Lock(task)
	la.Unlock(task)
	lb.Unlock(task)
	reports := Validator().Reports()
	if len(reports) != 1 || !strings.Contains(reports[0], "possible deadlock") {
		t.Fatalf("planted inversion: reports = %v", reports)
	}
}
