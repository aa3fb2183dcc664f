package ktrace

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// latencyPlane arms the full latency plane for one test: private
// ring, histograms + spans on, sampling off, everything restored on
// cleanup.
func latencyPlane(t *testing.T, perShard int) *Ring {
	t.Helper()
	r := testRing(t, perShard)
	prevShift := SetSampleShift(0)
	SetHistograms(true)
	SetSpans(true)
	t.Cleanup(func() {
		SetSpans(false)
		SetHistograms(false)
		SetSampleShift(prevShift)
	})
	return r
}

func TestSpanParentChild(t *testing.T) {
	r := latencyPlane(t, 64)
	opA := NewOp("spantest:outer")
	opB := NewOp("spantest:inner")
	task := kbase.NewTask()

	tA := opA.Begin(task)
	if !tA.Active() {
		t.Fatal("root timer inactive with the plane armed and sampling off")
	}
	trace, span := task.SpanCtx()
	if trace != tA.TraceID() || span == 0 {
		t.Fatalf("task ctx (%d,%d) does not carry the root span (trace %d)", trace, span, tA.TraceID())
	}
	tB := opB.Begin(task)
	if tB.TraceID() != tA.TraceID() {
		t.Fatalf("child trace %d != parent trace %d", tB.TraceID(), tA.TraceID())
	}
	tB.End()
	if trace, span = task.SpanCtx(); trace != tA.TraceID() {
		t.Fatalf("child End did not restore the parent ctx (trace now %d)", trace)
	}
	tA.End()
	if trace, span = task.SpanCtx(); trace != 0 || span != 0 {
		t.Fatalf("root End left ctx (%d,%d), want cleared", trace, span)
	}

	tree := SpanTree(r.Snapshot(), tA.TraceID())
	if len(tree) != 2 {
		t.Fatalf("span tree has %d lines, want 2: %q", len(tree), tree)
	}
	if !strings.HasPrefix(tree[0], "spantest:outer ") {
		t.Fatalf("root line = %q, want spantest:outer unindented", tree[0])
	}
	if !strings.HasPrefix(tree[1], "  spantest:inner ") {
		t.Fatalf("child line = %q, want spantest:inner indented under the root", tree[1])
	}

	if c := opA.Hist().View().Count; c == 0 {
		t.Fatal("histogram plane recorded nothing for the root op")
	}
}

func TestSpanInFlightRendering(t *testing.T) {
	r := latencyPlane(t, 64)
	op := NewOp("spantest:hang")
	task := kbase.NewTask()
	tm := op.Begin(task)
	tree := SpanTree(r.Snapshot(), tm.TraceID())
	if len(tree) != 1 || !strings.Contains(tree[0], "(in flight)") {
		t.Fatalf("unfinished span renders %q, want (in flight)", tree)
	}
	tm.End()
}

func TestRootSampling(t *testing.T) {
	testRing(t, 64)
	SetHistograms(true)
	prevShift := SetSampleShift(3) // 1 in 8
	t.Cleanup(func() {
		SetHistograms(false)
		SetSampleShift(prevShift)
	})
	op := NewOp("spantest:sampled")
	// The sampler is a counter — shared by task-less roots, one per
	// task otherwise — so any 80 consecutive rolls at shift 3 hit
	// exactly 10 times wherever the counter started.
	for _, task := range []*kbase.Task{nil, kbase.NewTask()} {
		active := 0
		for i := 0; i < 80; i++ {
			tm := op.Begin(task)
			if tm.Active() {
				active++
			}
			tm.End()
		}
		if active != 10 {
			t.Fatalf("task %d: %d of 80 roots sampled at shift 3, want exactly 10", task.ID(), active)
		}
	}
}

func TestChildBypassesSampling(t *testing.T) {
	testRing(t, 64)
	SetHistograms(true)
	SetSpans(true)
	prevShift := SetSampleShift(20) // roots ~never sampled
	t.Cleanup(func() {
		SetSpans(false)
		SetHistograms(false)
		SetSampleShift(prevShift)
	})
	task := kbase.NewTask()
	task.SetSpanCtx(777, 42)
	op := NewOp("spantest:child")
	tm := op.Begin(task)
	if !tm.Active() {
		t.Fatal("child inside a live trace was sampled out — trees must stay complete")
	}
	if tm.TraceID() != 777 {
		t.Fatalf("child trace = %d, want inherited 777", tm.TraceID())
	}
	tm.End()
	if trace, span := task.SpanCtx(); trace != 777 || span != 42 {
		t.Fatalf("End restored ctx (%d,%d), want (777,42)", trace, span)
	}
	task.SetSpanCtx(0, 0)
}

// TestSlowOpWatchdog proves the acceptance-criteria behavior: a root
// op over the threshold auto-dumps its span tree, naming every
// subsystem the op crossed.
func TestSlowOpWatchdog(t *testing.T) {
	latencyPlane(t, 64)
	prevTh := SetSlowOpThreshold(1) // every root is slow
	t.Cleanup(func() {
		SetSlowOpThreshold(prevTh)
		ResetSlowOp()
	})
	ResetSlowOp()
	slowBefore := SpansSlowCount()

	opRoot := NewOp("wdtest:root")
	opMid := NewOp("wdtestmid:commit")
	opLeaf := NewOp("wdtestleaf:fill")
	task := kbase.NewTask()

	tR := opRoot.Begin(task)
	tM := opMid.Begin(task)
	tL := opLeaf.Begin(task)
	tL.End()
	tM.End()
	tR.End()

	slow := LastSlowOp()
	if slow == nil {
		t.Fatal("watchdog captured nothing")
	}
	if slow.Op != "wdtest:root" {
		t.Fatalf("captured op %q, want the root", slow.Op)
	}
	if slow.TraceID != tR.TraceID() {
		t.Fatalf("captured trace %d, want %d", slow.TraceID, tR.TraceID())
	}
	joined := strings.Join(slow.Tree, "\n")
	for _, want := range []string{"wdtest:root", "wdtestmid:commit", "wdtestleaf:fill"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("span tree dump missing %q:\n%s", want, joined)
		}
	}
	if len(slow.Tree) != 3 {
		t.Fatalf("tree has %d lines, want 3:\n%s", len(slow.Tree), joined)
	}
	if n := SpansSlowCount() - slowBefore; n != 1 {
		t.Fatalf("watchdog fired %d times, want once (only the root trips it)", n)
	}
}

// TestNestedOpNotSlow: a child over the threshold must not fire the
// watchdog — only roots do, so one slow syscall produces one dump.
func TestChildDoesNotFireWatchdog(t *testing.T) {
	latencyPlane(t, 64)
	prevTh := SetSlowOpThreshold(1)
	t.Cleanup(func() {
		SetSlowOpThreshold(prevTh)
		ResetSlowOp()
	})
	ResetSlowOp()

	opRoot := NewOp("wdtest2:root")
	opChild := NewOp("wdtest2:child")
	task := kbase.NewTask()
	tR := opRoot.Begin(task)
	tC := opChild.Begin(task)
	tC.End()
	if got := LastSlowOp(); got != nil {
		t.Fatalf("child End fired the watchdog: %+v", got)
	}
	tR.End()
	if got := LastSlowOp(); got == nil || got.Op != "wdtest2:root" {
		t.Fatalf("root End should have fired the watchdog, got %+v", got)
	}
}

func TestOpRegistry(t *testing.T) {
	op := NewOp("optest:alpha")
	if again := NewOp("optest:alpha"); again != op {
		t.Fatal("NewOp is not idempotent per name")
	}
	if op.Subsystem() != "optest" || op.Short() != "alpha" {
		t.Fatalf("split = (%q,%q), want (optest,alpha)", op.Subsystem(), op.Short())
	}
	if OpByID(op.ID()) != op {
		t.Fatal("OpByID round trip failed")
	}
	if OpByName("optest:alpha") != op {
		t.Fatal("OpByName round trip failed")
	}
}
