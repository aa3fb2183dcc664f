package compartment

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

func TestDoPassesThroughErrno(t *testing.T) {
	c := New("fs")
	task := kbase.NewTask()
	if err := c.Do(task, "ok", func() kbase.Errno { return kbase.EOK }); err != kbase.EOK {
		t.Fatalf("Do = %v, want EOK", err)
	}
	if err := c.Do(task, "noent", func() kbase.Errno { return kbase.ENOENT }); err != kbase.ENOENT {
		t.Fatalf("Do = %v, want ENOENT (subsystem errnos pass through)", err)
	}
	if c.State() != gate.Healthy {
		t.Fatalf("state = %v after clean calls, want Healthy", c.State())
	}
}

func TestPanicContainedAsEFAULT(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("fs")
	err := c.Do(kbase.NewTask(), "boom", func() kbase.Errno {
		panic("wild pointer")
	})
	if err != kbase.EFAULT {
		t.Fatalf("contained panic: Do = %v, want EFAULT", err)
	}
	if c.State() != gate.Quarantined {
		t.Fatalf("state = %v after fault, want Quarantined", c.State())
	}
	f := c.lastFault
	if f == nil || !strings.Contains(f.Panic, "wild pointer") {
		t.Fatalf("LastFault = %+v, want panic message retained", f)
	}
}

func TestQuarantinedCallsFailFastWithoutBlocking(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("net")
	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })

	done := make(chan kbase.Errno, 1)
	go func() {
		done <- c.Do(kbase.NewTask(), "after", func() kbase.Errno { return kbase.EOK })
	}()
	select {
	case err := <-done:
		if err != kbase.ESHUTDOWN {
			t.Fatalf("quarantined Do = %v, want ESHUTDOWN", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call into quarantined compartment blocked; want fail-fast")
	}
}

func TestExecReturnsZeroValueOnContainment(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("fs")
	task := kbase.NewTask()
	v, err := Exec(c, task, "read", func() (int, kbase.Errno) { return 42, kbase.EOK })
	if v != 42 || err != kbase.EOK {
		t.Fatalf("Exec = (%d, %v), want (42, EOK)", v, err)
	}
	v, err = Exec(c, task, "read", func() (int, kbase.Errno) { panic("die") })
	if v != 0 || err != kbase.EFAULT {
		t.Fatalf("Exec after panic = (%d, %v), want (0, EFAULT)", v, err)
	}
}

// TestOopsReportedExactlyOnce is the satellite-2 layering check: a raw
// panic recovered at the boundary reports one oops; a *kbase.PanicReport
// (thrown by kbase.BUG, which already ran the oops machinery) reports
// none at the boundary — one total, no double-count.
func TestOopsReportedExactlyOnce(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	// Raw panic: boundary must report it.
	c := New("fs")
	c.Do(kbase.NewTask(), "raw", func() kbase.Errno { panic("raw panic") })
	if got := rec.Count(""); got != 1 {
		t.Fatalf("raw panic: %d oops events recorded, want exactly 1", got)
	}
	if f := c.lastFault; f.Reported {
		t.Fatalf("raw panic marked Reported; boundary was the reporter")
	}

	// BUG panic: kbase already recorded it; boundary must not re-report.
	rec.Reset()
	c2 := New("net")
	c2.Do(kbase.NewTask(), "bug", func() kbase.Errno {
		kbase.BUG("tcb", "refcount underflow")
		return kbase.EOK
	})
	if got := rec.Count(""); got != 1 {
		t.Fatalf("BUG panic: %d oops events recorded, want exactly 1 (no boundary double-report)", got)
	}
	lf := c2.lastFault
	if !lf.Reported {
		t.Fatalf("BUG panic not marked Reported; boundary would double-report")
	}
	if !strings.Contains(lf.Panic, "refcount underflow") {
		t.Fatalf("fault lost the BUG message: %+v", lf)
	}
}

// TestOopsOnceWithFlightRecorder asserts the kernel:oops tracepoint
// fires exactly once per contained fault even with the full flight
// recorder installed — the integration the satellite names.
func TestOopsOnceWithFlightRecorder(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	ktrace.EnableFlightRecorder(0)
	defer ktrace.DisableFlightRecorder()

	tpOops := ktrace.Lookup("kernel:oops")
	if tpOops == nil {
		t.Fatal("kernel:oops tracepoint not declared")
	}
	before := tpOops.Hits()

	c := New("fs")
	c.Do(kbase.NewTask(), "bug", func() kbase.Errno {
		kbase.BUG("extlike", "bad inode")
		return kbase.EOK
	})
	if got := tpOops.Hits() - before; got != 1 {
		t.Fatalf("kernel:oops emitted %d times for one contained BUG, want 1", got)
	}
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("%d oops events, want 1", len(evs))
	}
	if len(evs[0].Trace) == 0 {
		t.Fatalf("oops event missing flight-recorder snapshot")
	}

	before = tpOops.Hits()
	c2 := New("net")
	c2.Do(kbase.NewTask(), "raw", func() kbase.Errno { panic("raw") })
	if got := tpOops.Hits() - before; got != 1 {
		t.Fatalf("kernel:oops emitted %d times for one contained raw panic, want 1", got)
	}
}

func TestContainmentWithoutRecorderStillContains(t *testing.T) {
	// No recorder installed: the boundary must not call Oops (which
	// would panic) — containment still converts the fault to EFAULT.
	prev := kbase.InstallRecorder(nil)
	defer kbase.InstallRecorder(prev)

	c := New("fs")
	err := c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	if err != kbase.EFAULT {
		t.Fatalf("Do = %v, want EFAULT even with no recorder", err)
	}
	if c.State() != gate.Quarantined {
		t.Fatalf("state = %v, want Quarantined", c.State())
	}
}

func TestPoisonEnumerationAtFault(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("fs")
	c.SetPoisonFn(func() []string { return []string{"safefs:/a", "safefs:/b"} })
	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	f := c.lastFault
	if len(f.Poisoned) != 2 || f.Poisoned[0] != "safefs:/a" {
		t.Fatalf("Poisoned = %v, want the enumerated labels", f.Poisoned)
	}
}

func TestInjectPanicCountdown(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("buf")
	c.InjectPanic(3)
	task := kbase.NewTask()
	ok := func() kbase.Errno { return kbase.EOK }
	if err := c.Do(task, "1", ok); err != kbase.EOK {
		t.Fatalf("entry 1 = %v", err)
	}
	if err := c.Do(task, "2", ok); err != kbase.EOK {
		t.Fatalf("entry 2 = %v", err)
	}
	if err := c.Do(task, "3", ok); err != kbase.EFAULT {
		t.Fatalf("entry 3 = %v, want EFAULT (injected)", err)
	}
	if c.State() != gate.Quarantined {
		t.Fatalf("state = %v, want Quarantined", c.State())
	}
}

func TestSupervisorBypassesGate(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("fs")
	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	// Quarantined for normal tasks, open for the supervisor.
	sup := kbase.NewSupervisorTask()
	if err := c.Do(sup, "rebuild", func() kbase.Errno { return kbase.EOK }); err != kbase.EOK {
		t.Fatalf("supervisor Do on quarantined compartment = %v, want EOK", err)
	}
}

func TestDrainBlocksEntriesAndReleases(t *testing.T) {
	c := New("fs")
	task := kbase.NewTask()

	// Occupy the compartment with a slow call.
	inside := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(task, "slow", func() kbase.Errno {
			close(inside)
			<-release
			return kbase.EOK
		})
	}()
	<-inside

	// Drain from another goroutine; it must wait for the slow call.
	drained := make(chan kbase.Errno, 1)
	go func() { drained <- c.BeginDrain(gate.Draining) }()

	// Give the drainer time to close the gate, then verify a new entry
	// queues rather than failing.
	for c.State() != gate.Draining {
		time.Sleep(time.Millisecond)
	}
	queued := make(chan kbase.Errno, 1)
	go func() {
		queued <- c.Do(kbase.NewTask(), "queued", func() kbase.Errno { return kbase.EOK })
	}()
	select {
	case err := <-queued:
		t.Fatalf("entry during drain returned %v; want it to queue", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // retire the in-flight call
	if err := <-drained; err != kbase.EOK {
		t.Fatalf("BeginDrain = %v, want EOK", err)
	}
	if got := ktrace.Read(c.CollectMetrics, "inflight"); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}

	c.EndDrain("swap", time.Millisecond)
	if err := <-queued; err != kbase.EOK {
		t.Fatalf("queued entry after EndDrain = %v, want EOK (zero dropped ops)", err)
	}
	if got := ktrace.Read(c.CollectMetrics, "swaps"); got != 1 {
		t.Fatalf("swaps = %d, want 1", got)
	}
}

func TestBeginDrainTimesOutEBUSY(t *testing.T) {
	// Not worth 5s in the suite: simulate by holding an entry open and
	// checking concurrent drain refusal instead (state-based EBUSY).
	c := New("fs")
	if err := c.BeginDrain(gate.Draining); err != kbase.EOK {
		t.Fatalf("first BeginDrain = %v", err)
	}
	if err := c.BeginDrain(gate.Draining); err != kbase.EBUSY {
		t.Fatalf("concurrent BeginDrain = %v, want EBUSY", err)
	}
	c.EndDrain("swap", 0)
}

func TestPlaneAutoRestart(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	var rebuilt atomic.Int64
	p := NewPlane()
	c := p.Add("fs", Options{
		Restart: func(task *kbase.Task) kbase.Errno {
			if !task.Supervisor() {
				t.Error("restart hook not on a supervisor task")
			}
			rebuilt.Add(1)
			return kbase.EOK
		},
	})

	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	p.Settle()
	if !p.WaitHealthy("fs", 2*time.Second) {
		t.Fatalf("compartment did not return to Healthy; state=%v", c.State())
	}
	if rebuilt.Load() != 1 {
		t.Fatalf("restart hook ran %d times, want 1", rebuilt.Load())
	}
	if err := c.Do(kbase.NewTask(), "after", func() kbase.Errno { return kbase.EOK }); err != kbase.EOK {
		t.Fatalf("Do after restart = %v, want EOK", err)
	}
	if got := len(p.Faults()); got != 1 {
		t.Fatalf("fault log has %d entries, want 1", got)
	}
}

// TestFailedAutoRestartLandsInFaultLog: an auto-restart whose hook
// fails must be recorded, not silently dropped — the compartment stays
// quarantined and the log has to say why (regression test for the
// droppederr finding on the supervisor's restart goroutine).
func TestFailedAutoRestartLandsInFaultLog(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	p := NewPlane()
	c := p.Add("fs", Options{
		Restart: func(task *kbase.Task) kbase.Errno { return kbase.EIO },
	})

	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	p.Settle()
	if c.State() != gate.Quarantined {
		t.Fatalf("state = %v after failed restart, want Quarantined", c.State())
	}
	faults := p.Faults()
	if len(faults) != 2 {
		t.Fatalf("fault log has %d entries, want 2 (crash + failed restart)", len(faults))
	}
	last := faults[1]
	if !strings.Contains(last.Panic, "auto-restart failed") ||
		!strings.Contains(last.Panic, kbase.EIO.Error()) {
		t.Fatalf("failed-restart entry = %+v, want auto-restart failure with EIO", last)
	}
}

func TestManualRestartClearsQuarantine(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	p := NewPlane()
	p.SetAutoRestart(false)
	c := p.Add("net", Options{
		Restart: func(task *kbase.Task) kbase.Errno { return kbase.EOK },
	})
	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	if c.State() != gate.Quarantined {
		t.Fatalf("state = %v, want Quarantined (auto-restart off)", c.State())
	}
	if err := c.Do(kbase.NewTask(), "q", func() kbase.Errno { return kbase.EOK }); err != kbase.ESHUTDOWN {
		t.Fatalf("quarantined Do = %v, want ESHUTDOWN", err)
	}
	if err := p.Restart("net"); err != kbase.EOK {
		t.Fatalf("Restart = %v", err)
	}
	if err := c.Do(kbase.NewTask(), "after", func() kbase.Errno { return kbase.EOK }); err != kbase.EOK {
		t.Fatalf("Do after manual restart = %v, want EOK", err)
	}
}

func TestFailedRestartStaysQuarantined(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	p := NewPlane()
	p.SetAutoRestart(false)
	fail := true
	c := p.Add("fs", Options{
		Restart: func(task *kbase.Task) kbase.Errno {
			if fail {
				return kbase.EIO
			}
			return kbase.EOK
		},
	})
	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	if err := p.Restart("fs"); err != kbase.EIO {
		t.Fatalf("failed Restart = %v, want EIO", err)
	}
	if c.State() != gate.Quarantined {
		t.Fatalf("state after failed restart = %v, want Quarantined", c.State())
	}
	fail = false
	if err := p.Restart("fs"); err != kbase.EOK {
		t.Fatalf("second Restart = %v", err)
	}
	if c.State() != gate.Healthy {
		t.Fatalf("state = %v, want Healthy", c.State())
	}
}

// TestConcurrentTrafficDuringFaultAndRestart hammers the boundary from
// many goroutines while faults and restarts cycle — the -race exercise
// for the gate.
func TestConcurrentTrafficDuringFaultAndRestart(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	p := NewPlane()
	c := p.Add("fs", Options{
		Restart: func(task *kbase.Task) kbase.Errno { return kbase.EOK },
	})

	const workers = 8
	const opsPerWorker = 200
	var wg sync.WaitGroup
	var ok, shutdown, fault atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := kbase.NewTask()
			for i := 0; i < opsPerWorker; i++ {
				err := c.Do(task, "op", func() kbase.Errno { return kbase.EOK })
				switch err {
				case kbase.EOK:
					ok.Add(1)
				case kbase.ESHUTDOWN:
					shutdown.Add(1)
				case kbase.EFAULT:
					fault.Add(1)
				default:
					t.Errorf("unexpected errno %v", err)
				}
			}
		}(w)
	}
	// Fire a few injected faults while traffic flows.
	for k := 0; k < 5; k++ {
		time.Sleep(2 * time.Millisecond)
		c.InjectPanic(1)
	}
	wg.Wait()
	p.Settle()
	if !p.WaitHealthy("fs", 5*time.Second) {
		t.Fatalf("plane did not converge to Healthy; state=%v", c.State())
	}
	if ok.Load() == 0 {
		t.Fatal("no operation succeeded under fault storm")
	}
	t.Logf("ok=%d shutdown=%d fault=%d faultsLogged=%d",
		ok.Load(), shutdown.Load(), fault.Load(), len(p.Faults()))
}

// TestSwapUnderConcurrentLoadZeroDrops is the drain-protocol property
// the bench enforces: every operation issued around a drain completes
// with EOK — queued, never dropped — and none runs inside the drained
// window between BeginDrain and EndDrain.
func TestSwapUnderConcurrentLoadZeroDrops(t *testing.T) {
	c := New("fs")
	const workers = 8
	const opsPerWorker = 300
	var wg sync.WaitGroup
	var failed, violations atomic.Int64
	var drained atomic.Bool // set from BeginDrain's return to EndDrain
	body := func() kbase.Errno {
		if drained.Load() {
			violations.Add(1)
		}
		return kbase.EOK
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := kbase.NewTask()
			for i := 0; i < opsPerWorker; i++ {
				if err := c.Do(task, "op", body); err != kbase.EOK {
					failed.Add(1)
				}
			}
		}()
	}
	for s := 0; s < 3; s++ {
		time.Sleep(time.Millisecond)
		start := time.Now()
		if err := c.BeginDrain(gate.Draining); err != kbase.EOK {
			t.Fatalf("swap %d: BeginDrain = %v", s, err)
		}
		drained.Store(true)
		time.Sleep(20 * time.Microsecond)
		drained.Store(false)
		c.EndDrain("swap", time.Since(start))
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d operations ran inside a drained window, want 0", v)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d operations failed across 3 swaps, want 0", failed.Load())
	}
	if got := ktrace.Read(c.CollectMetrics, "swaps"); got != 3 {
		t.Fatalf("swaps = %d after 3 swaps, want 3", got)
	}
}

// TestFaultInSwapDrainWaitsForOwner: a swap drains while an
// interaction holds the gate, and the hold's nested entry panics. The
// fault must not hand the gate to a second drain owner: the
// supervisor's auto-restart starts only after the swap's EndDrain,
// never under it, and the gate ends Healthy.
func TestFaultInSwapDrainWaitsForOwner(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	var ending, hookRan atomic.Bool // swap reached EndDrain; restart hook started
	var early, reopened atomic.Int64
	var c *Compartment
	p := NewPlane()
	c = p.Add("net", Options{Restart: func(*kbase.Task) kbase.Errno {
		if !ending.Load() {
			early.Add(1)
		}
		hookRan.Store(true)
		time.Sleep(time.Millisecond) // the window a reopening swap would hit
		if c.State() != gate.Restarting {
			reopened.Add(1)
		}
		return kbase.EOK
	}})
	// waitFor polls cond for up to 10 ms, the time the bug needs to show:
	// a second owner's drain and hook start microseconds after the fault.
	waitFor := func(cond func() bool) {
		for end := time.Now().Add(10 * time.Millisecond); !cond() && time.Now().Before(end); {
			time.Sleep(20 * time.Microsecond)
		}
	}

	task := kbase.NewTask()
	release, err := c.Hold(task, "interaction")
	if err != kbase.EOK {
		t.Fatalf("Hold = %v", err)
	}
	swapped := make(chan kbase.Errno)
	go func() {
		if err := c.BeginDrain(gate.Draining); err != kbase.EOK {
			swapped <- err
			return
		}
		waitFor(hookRan.Load) // migrate; a concurrent restart would start here
		ending.Store(true)
		c.EndDrain("swap", 0)
		swapped <- kbase.EOK
	}()
	waitFor(func() bool { return c.State() == gate.Draining })
	if c.State() != gate.Draining {
		t.Fatalf("state = %v, want the swap draining", c.State())
	}

	c.InjectPanic(1)
	if err := c.Run("nested", func() kbase.Errno { return kbase.EOK }); err != kbase.EFAULT {
		t.Fatalf("nested entry = %v, want EFAULT", err)
	}
	if err := c.Run("after-fault", func() kbase.Errno { return kbase.EOK }); err != kbase.ESHUTDOWN {
		t.Fatalf("entry after the fault = %v, want ESHUTDOWN", err)
	}
	waitFor(func() bool { return c.State() == gate.Restarting })
	release()

	if err := <-swapped; err != kbase.EOK {
		t.Fatalf("swap BeginDrain = %v", err)
	}
	p.Settle()
	if early.Load() != 0 {
		t.Fatalf("restart hook started before the swap's EndDrain")
	}
	if reopened.Load() != 0 {
		t.Fatalf("the gate left Restarting under a running restart hook")
	}
	if !hookRan.Load() {
		t.Fatal("the fault never restarted the compartment")
	}
	if c.State() != gate.Healthy {
		t.Fatalf("state = %v, want Healthy", c.State())
	}
	if f := p.Faults(); len(f) != 1 {
		t.Fatalf("fault log = %v, want the one injected fault", f)
	}
	for _, name := range []string{"swaps", "restarts"} {
		if got := ktrace.Read(c.CollectMetrics, name); got != 1 {
			t.Fatalf("%s = %d, want 1", name, got)
		}
	}
}

func TestGuardProbeFailsOpen(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	c := New("ebpf")
	c.SetQuiet(true)
	if keep := c.GuardProbe(func() bool { return false }); keep {
		t.Fatal("GuardProbe ignored the program verdict")
	}
	if keep := c.GuardProbe(func() bool { panic("bad program") }); !keep {
		t.Fatal("GuardProbe did not fail open on contained panic")
	}
	if c.State() != gate.Quarantined {
		t.Fatalf("state = %v, want Quarantined", c.State())
	}
	// Quarantined: fail open without running the program.
	ran := false
	if keep := c.GuardProbe(func() bool { ran = true; return false }); !keep || ran {
		t.Fatalf("quarantined GuardProbe keep=%v ran=%v, want fail-open without running", keep, ran)
	}
}

func TestMetricsCollection(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	p := NewPlane()
	p.SetAutoRestart(false)
	c := p.Add("fs", Options{Restart: func(task *kbase.Task) kbase.Errno { return kbase.EOK }})
	m := ktrace.NewMetrics()
	p.RegisterMetrics(m)

	c.Do(kbase.NewTask(), "ok", func() kbase.Errno { return kbase.EOK })
	c.Do(kbase.NewTask(), "boom", func() kbase.Errno { panic("die") })
	c.Do(kbase.NewTask(), "rejected", func() kbase.Errno { return kbase.EOK })

	for _, want := range []struct {
		name string
		val  uint64
	}{
		{"entered", 2}, {"rejected", 1}, {"faults", 1},
		{"state", uint64(gate.Quarantined)},
	} {
		got, ok := m.Lookup("compartment_fs", want.name)
		if !ok || got != want.val {
			t.Errorf("compartment_fs/%s = %d (ok=%v), want %d", want.name, got, ok, want.val)
		}
	}
	if got, ok := m.Lookup("compartment", "faults_logged"); !ok || got != 1 {
		t.Errorf("compartment/faults_logged = %d (ok=%v), want 1", got, ok)
	}
}

func TestEnterTracepointCarriesEpoch(t *testing.T) {
	tpEnter := ktrace.Lookup("compartment:enter")
	tpEnter.Enable()
	defer tpEnter.Disable()
	c := New("tp-test")
	before := tpEnter.Hits()
	c.Do(kbase.NewTask(), "op", func() kbase.Errno { return kbase.EOK })
	if tpEnter.Hits() != before+1 {
		t.Fatalf("enter tracepoint did not fire")
	}
	c.SetQuiet(true)
	c.Do(kbase.NewTask(), "op", func() kbase.Errno { return kbase.EOK })
	if tpEnter.Hits() != before+1 {
		t.Fatalf("quiet compartment emitted enter tracepoint")
	}
}

// TestGateStress runs concurrent Do and Hold traffic against a single
// supervisor that loops swap drains (BeginDrain/EndDrain) and injected
// faults with restarts, under -race in `make panic-storm`. It checks
// the lock-free admission protocol: no crossed function runs while a
// drain with no open holds is in effect (an open hold counts as
// in-flight, so a completed drain has none), every call returns EOK,
// EFAULT or ESHUTDOWN, and the in-flight count ends at zero.
func TestGateStress(t *testing.T) {
	rec := kbase.InstallRecorder(&kbase.OopsRecorder{})
	defer kbase.InstallRecorder(rec)

	var closed atomic.Bool // a drain or restart owns the compartment
	var violations, bad atomic.Int64
	body := func() kbase.Errno {
		if closed.Load() {
			violations.Add(1)
		}
		return kbase.EOK
	}
	check := func(err kbase.Errno) {
		if err != kbase.EOK && err != kbase.EFAULT && err != kbase.ESHUTDOWN {
			bad.Add(1)
		}
	}
	// owned stands in for the work a drain owner does: nothing may
	// cross while it runs.
	owned := func() {
		closed.Store(true)
		time.Sleep(20 * time.Microsecond)
		closed.Store(false)
	}
	p := NewPlane()
	p.SetAutoRestart(false)
	c := p.Add("stress", Options{
		Restart: func(*kbase.Task) kbase.Errno { owned(); return kbase.EOK },
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopWorkers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWorkers()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := kbase.NewTask()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if (i+w)%4 != 0 {
					check(c.Do(task, "op", body))
					continue
				}
				release, err := c.Hold(task, "hold")
				check(err)
				if err != kbase.EOK {
					continue
				}
				for j := 0; j < 3; j++ {
					check(c.Run("nested", body))
				}
				release()
			}
		}(w)
	}

	var swaps, restarts int
	for i := 0; i < 300; i++ {
		switch {
		case c.State() == gate.Quarantined:
			if err := p.Restart("stress"); err != kbase.EOK {
				t.Fatalf("Restart = %v", err)
			}
			restarts++
		case i%5 == 4:
			c.InjectPanic(int64(1 + i%7))
		default:
			if err := c.BeginDrain(gate.Draining); err != kbase.EOK {
				continue // a fault quarantined the gate first
			}
			owned()
			c.EndDrain("swap", 0)
			swaps++
		}
		time.Sleep(50 * time.Microsecond)
	}
	stopWorkers()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d crossings ran inside a completed drain", v)
	}
	if b := bad.Load(); b != 0 {
		t.Fatalf("%d calls returned an errno other than EOK/EFAULT/ESHUTDOWN", b)
	}
	if got := ktrace.Read(c.CollectMetrics, "inflight"); got != 0 {
		t.Fatalf("inflight = %d after the storm, want 0", got)
	}
	if swaps == 0 || restarts == 0 {
		t.Fatalf("storm too tame: %d swaps, %d restarts", swaps, restarts)
	}
	t.Logf("swaps=%d restarts=%d entered=%d", swaps, restarts, ktrace.Read(c.CollectMetrics, "entered"))
}
