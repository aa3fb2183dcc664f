package ktrace

import (
	"fmt"
	"sync"
	"testing"

	"safelinux/internal/linuxlike/ebpflike"
	"safelinux/internal/linuxlike/kbase"
)

// testRing swaps in a private ring for the test and restores the old
// one (tests in this package share the global ring).
func testRing(t *testing.T, perShard int) *Ring {
	t.Helper()
	old := ringPtr.Load()
	r := NewRing(perShard)
	ringPtr.Store(r)
	t.Cleanup(func() { ringPtr.Store(old) })
	return r
}

func TestEmitGateDisabled(t *testing.T) {
	r := testRing(t, 8)
	tp := New("test:gate")
	tp.Emit(0, 1, 2)
	tp.Emit4(0, 1, 2, 3, 4)
	if got := r.Emitted(); got != 0 {
		t.Fatalf("disabled tracepoint emitted %d events", got)
	}
	if tp.Hits() != 0 {
		t.Fatalf("disabled tracepoint counted %d hits", tp.Hits())
	}
}

func TestEmitRecordsEvent(t *testing.T) {
	r := testRing(t, 8)
	tp := New("test:emit")
	tp.Enable()
	defer tp.Disable()
	tp.Emit4(7, 10, 20, 30, 40)
	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Name != "test:emit" || e.Task != 7 || e.A0 != 10 || e.A1 != 20 || e.A2 != 30 || e.A3 != 40 {
		t.Fatalf("bad event: %+v", e)
	}
	if e.TPID != tp.ID() {
		t.Fatalf("event TPID %d != tracepoint ID %d", e.TPID, tp.ID())
	}
	if tp.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", tp.Hits())
	}
}

func TestEnableRefcount(t *testing.T) {
	tp := New("test:refcount")
	if tp.Enabled() {
		t.Fatal("fresh tracepoint enabled")
	}
	tp.Enable()
	tp.Enable()
	tp.Disable()
	if !tp.Enabled() {
		t.Fatal("tracepoint disabled with one reference outstanding")
	}
	tp.Disable()
	if tp.Enabled() {
		t.Fatal("tracepoint still enabled after balanced disables")
	}
	tp.Disable() // extra disable must not go negative
	tp.Enable()
	if !tp.Enabled() {
		t.Fatal("enable after floor-clamped disable did not stick")
	}
	tp.Disable()
}

// TestRingWraparound fills the ring several times over and checks that
// the survivors are exactly the newest events, in order.
func TestRingWraparound(t *testing.T) {
	r := testRing(t, 8) // capacity 16*8 = 128
	tp := New("test:wrap")
	tp.Enable()
	defer tp.Disable()
	const emits = 1000
	for i := 0; i < emits; i++ {
		tp.Emit(0, uint64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != r.Cap() {
		t.Fatalf("ring holds %d events, want full capacity %d", len(evs), r.Cap())
	}
	// Oldest survivor is emits - cap; sequence numbers are contiguous.
	for i, e := range evs {
		wantA0 := uint64(emits - r.Cap() + i)
		if e.A0 != wantA0 {
			t.Fatalf("event %d: a0 = %d, want %d (oldest overwritten first)", i, e.A0, wantA0)
		}
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d after %d", e.Seq, evs[i-1].Seq)
		}
	}
	if got := r.Emitted(); got != emits {
		t.Fatalf("Emitted() = %d, want %d", got, emits)
	}
	last := r.Last(10)
	if len(last) != 10 || last[9].A0 != emits-1 {
		t.Fatalf("Last(10) tail a0 = %d, want %d", last[9].A0, emits-1)
	}
}

// TestRingConcurrentEmitters hammers one ring from many goroutines —
// run under -race this is the proof the reservation/publication
// protocol is clean — and checks no sequence number is lost or
// duplicated among the survivors.
func TestRingConcurrentEmitters(t *testing.T) {
	r := testRing(t, 64)
	tp := New("test:concurrent")
	tp.Enable()
	defer tp.Disable()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tp.Emit(int64(g), uint64(g), uint64(i))
			}
		}(g)
	}
	// A concurrent reader exercises snapshot-during-emit.
	stop := make(chan struct{})
	var rdWg sync.WaitGroup
	rdWg.Add(1)
	go func() {
		defer rdWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rdWg.Wait()

	if got := r.Emitted(); got != goroutines*perG {
		t.Fatalf("Emitted() = %d, want %d", got, goroutines*perG)
	}
	evs := r.Snapshot()
	if len(evs) != r.Cap() {
		t.Fatalf("ring holds %d, want %d", len(evs), r.Cap())
	}
	seen := make(map[uint64]bool, len(evs))
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestCtxBytesLayout(t *testing.T) {
	e := Event{Seq: 0x1122334455667788, TPID: 9, Task: 0x0102030405060708, A0: 1, A1: 2, A2: 3, A3: 4}
	b := e.CtxBytes()
	if b[0] != 9 {
		t.Fatalf("tpID byte = %d", b[0])
	}
	if b[4] != 0x08 || b[7] != 0x05 {
		t.Fatalf("task low-32 bytes wrong: % x", b[4:8])
	}
	if b[8] != 0x88 || b[15] != 0x11 {
		t.Fatalf("seq bytes wrong: % x", b[8:16])
	}
	if b[16] != 1 || b[24] != 2 || b[32] != 3 || b[40] != 4 {
		t.Fatalf("arg bytes wrong")
	}
}

// TestAttachFilterEndToEnd is the integration test of the verified-
// probe plane: an ebpflike program attached to a tracepoint filters
// events out of the ring by predicate.
func TestAttachFilterEndToEnd(t *testing.T) {
	r := testRing(t, 32)
	tp := New("test:attach")

	// keep events with a0 >= 50 (low 32 bits at ctx offset 16)
	prog, err := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpLdCtx32, Dst: 1, Src: 0, Imm: 16},
		{Op: ebpflike.OpMov, Dst: 2, Imm: 50},
		{Op: ebpflike.OpJLt, Dst: 1, Src: 2, Off: 2},
		{Op: ebpflike.OpMov, Dst: 0, Imm: 1},
		{Op: ebpflike.OpRet, Dst: 0},
		{Op: ebpflike.OpMov, Dst: 0, Imm: 0},
		{Op: ebpflike.OpRet, Dst: 0},
	}, EventCtxSize)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	probe, kerr := Attach(tp, prog)
	if kerr != kbase.EOK {
		t.Fatalf("attach: %v", kerr)
	}
	if !tp.Enabled() {
		t.Fatal("attach did not enable the tracepoint")
	}

	for i := 0; i < 100; i++ {
		tp.Emit(0, uint64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 50 {
		t.Fatalf("ring holds %d events, want 50 survivors", len(evs))
	}
	for _, e := range evs {
		if e.A0 < 50 {
			t.Fatalf("filtered event a0=%d leaked into the ring", e.A0)
		}
	}
	if probe.Matched() != 50 || probe.Dropped() != 50 {
		t.Fatalf("probe counters matched=%d dropped=%d, want 50/50", probe.Matched(), probe.Dropped())
	}
	if tp.Hits() != 50 || tp.Filtered() != 50 {
		t.Fatalf("tracepoint counters hits=%d filtered=%d, want 50/50", tp.Hits(), tp.Filtered())
	}

	probe.Detach()
	probe.Detach() // idempotent
	if tp.Enabled() {
		t.Fatal("detach did not drop the enable reference")
	}
	tp.Enable()
	defer tp.Disable()
	tp.Emit(0, 1, 0) // a0 < 50: with the probe gone it must survive
	if tp.Filtered() != 50 {
		t.Fatalf("detached probe still filtering")
	}
}

func TestAttachRejectsOversizedCtx(t *testing.T) {
	tp := New("test:attach-reject")
	prog, err := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpMov, Dst: 0, Imm: 1},
		{Op: ebpflike.OpRet, Dst: 0},
	}, EventCtxSize+8)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, kerr := Attach(tp, prog); kerr != kbase.EINVAL {
		t.Fatalf("Attach with oversized ctx: %v, want EINVAL", kerr)
	}
	if _, kerr := Attach(nil, prog); kerr != kbase.EINVAL {
		t.Fatalf("Attach(nil tracepoint): %v, want EINVAL", kerr)
	}
	if _, kerr := Attach(tp, nil); kerr != kbase.EINVAL {
		t.Fatalf("Attach(nil program): %v, want EINVAL", kerr)
	}
}

// TestProbeFailOpen: a program that faults at runtime must keep the
// event (a broken observer must not hide kernel activity).
func TestProbeFailOpen(t *testing.T) {
	r := testRing(t, 8)
	tp := New("test:failopen")
	// r1 = ctx[a0-offset] (= emitted a0), r2 = 1, r1 /= r0 where r0
	// holds the event's a1 — division by a zero register faults at
	// runtime when a1 == 0.
	prog, err := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpLdCtx32, Dst: 1, Src: 0, Imm: 16},
		{Op: ebpflike.OpLdCtx32, Dst: 2, Src: 0, Imm: 24},
		{Op: ebpflike.OpDiv, Dst: 1, Src: 2},
		{Op: ebpflike.OpMov, Dst: 0, Imm: 0},
		{Op: ebpflike.OpRet, Dst: 0},
	}, EventCtxSize)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	probe, kerr := Attach(tp, prog)
	if kerr != kbase.EOK {
		t.Fatalf("attach: %v", kerr)
	}
	defer probe.Detach()
	tp.Emit(0, 8, 0) // a1=0: div-by-zero fault, kept fail-open
	tp.Emit(0, 8, 2) // runs clean, verdict 0, dropped
	if probe.RunErrs() != 1 {
		t.Fatalf("runErrs = %d, want 1", probe.RunErrs())
	}
	evs := r.Snapshot()
	if len(evs) != 1 || evs[0].A1 != 0 {
		t.Fatalf("fail-open event missing from ring: %+v", evs)
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Register("alpha", func(emit func(string, uint64)) {
		emit("x", 1)
		emit("y", 2)
	})
	// Second collector under the same subsystem: samples merge by sum.
	m.Register("alpha", func(emit func(string, uint64)) { emit("x", 10) })
	m.Register("beta", func(emit func(string, uint64)) { emit("z", 3) })

	if v, ok := m.Lookup("alpha", "x"); !ok || v != 11 {
		t.Fatalf("Lookup(alpha, x) = %d, %v; want 11, true", v, ok)
	}
	got := m.RenderText()
	want := "alpha.x 11\nalpha.y 2\nbeta.z 3\n"
	if got != want {
		t.Fatalf("RenderText:\n%s\nwant:\n%s", got, want)
	}
	blob, err := m.RenderJSON()
	if err != nil {
		t.Fatalf("RenderJSON: %v", err)
	}
	if string(blob) == "" || !containsAll(string(blob), `"alpha"`, `"x": 11`, `"beta"`) {
		t.Fatalf("RenderJSON missing fields:\n%s", blob)
	}
	if _, ok := m.Lookup("gamma", "nope"); ok {
		t.Fatal("Lookup of unregistered metric succeeded")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestFlightRecorder: an oops while the flight recorder is installed
// snapshots the preceding trace events into the report.
func TestFlightRecorder(t *testing.T) {
	testRing(t, 32)
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	tp := New("test:flight")
	EnableFlightRecorder(8)
	defer DisableFlightRecorder()

	for i := 0; i < 20; i++ {
		tp.Emit(0, uint64(i), 0)
	}
	kbase.Oops(kbase.OopsSemantic, "testmod", "synthetic failure %d", 42)

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d oopses, want 1", len(evs))
	}
	e := evs[0]
	if len(e.Trace) == 0 {
		t.Fatal("oops captured no trace events")
	}
	if len(e.Trace) > 8 {
		t.Fatalf("oops captured %d events, depth was 8", len(e.Trace))
	}
	// The kernel:oops tracepoint fires before the snapshot, so the dump
	// ends with the oops itself, preceded by the test:flight traffic.
	lastLine := e.Trace[len(e.Trace)-1]
	if !containsAll(lastLine, "kernel:oops") {
		t.Fatalf("dump does not end with kernel:oops: %q", lastLine)
	}
	if !containsAll(lastLine, fmt.Sprintf("a1=%d", fnv1a("testmod"))) {
		t.Fatalf("kernel:oops event does not carry the module hash: %q", lastLine)
	}
	foundFlight := false
	for _, line := range e.Trace {
		if containsAll(line, "test:flight") {
			foundFlight = true
		}
	}
	if !foundFlight {
		t.Fatal("dump does not contain the preceding test:flight events")
	}
}

func TestFlightRecorderIdempotent(t *testing.T) {
	testRing(t, 8)
	EnableFlightRecorder(4)
	EnableFlightRecorder(16) // only the depth updates
	defer DisableFlightRecorder()
	flightMu.Lock()
	d := flightDepth
	flightMu.Unlock()
	if d != 16 {
		t.Fatalf("depth = %d, want 16", d)
	}
	DisableFlightRecorder()
	DisableFlightRecorder() // second disable is a no-op
	EnableFlightRecorder(4) // balanced for the deferred disable
}

func TestHashStable(t *testing.T) {
	if Hash("bufcache") != fnv1a("bufcache") {
		t.Fatal("Hash does not match fnv1a")
	}
	if Hash("a") == Hash("b") {
		t.Fatal("trivial hash collision")
	}
}
