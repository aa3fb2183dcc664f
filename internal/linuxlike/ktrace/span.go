package ktrace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safelinux/internal/linuxlike/kbase"
)

// Request-scoped span tracing.
//
// A span is one timed traversal of a boundary op. Spans form a tree:
// the trace id is the root span's id, every span carries its parent's
// id, and the current (trace, span) pair rides on the kernel task (two
// atomic words in kbase.Task — kbase sits below ktrace in the import
// graph, so the task can't hold richer types). A boundary op that
// finds a ctx already on its task becomes a child; one that finds none
// becomes a root and mints a fresh trace.
//
// Cost discipline: the baseline parallel-I/O op is ~355 ns and a
// timestamp pair alone is ~90 ns, so timing every op would blow the
// ≤5% budget by 5x. Roots therefore sample (default 1 in 32, see
// SetSampleShift); a child whose parent sampled in always records, so
// every captured trace is a *complete* tree — the standard
// parent-based sampling deal. Histograms ride the same decision:
// quantiles from a uniform 1-in-32 sample converge on the true
// distribution, and the bench tiers in BENCH_trace.json price the
// whole arrangement honestly, including a shift-0 (sample-everything)
// tier.
//
// Span events in the ring (see the catalog in DESIGN.md):
//
//	span:begin  a0=trace a1=span a2=parent-span a3=op-id
//	span:end    a0=trace a1=span a2=duration-ns a3=op-id
//	span:slow   a0=trace a1=span a2=duration-ns a3=op-id
//
// The slow-op watchdog fires when a *root* span ends over the
// threshold: it emits span:slow, renders the trace's span tree from a
// ring snapshot, and hands it to LastSlowOp and the hook — the
// flight-recorder answer to "what did that 40 ms write touch?".

var (
	tpSpanBegin = New("span:begin")
	tpSpanEnd   = New("span:end")
	tpSpanSlow  = New("span:slow")
)

// Plane mode bits: which halves of the latency plane are live.
const (
	planeHist = 1 << iota
	planeSpan
)

var (
	planeMode atomic.Uint32

	// Root-span sampling: record 1 in 2^shift roots (0 = all).
	sampleShift atomic.Uint32
	sampleCtr   atomic.Uint64

	spanIDs      atomic.Uint64
	spansStarted atomic.Uint64
	spansSlow    atomic.Uint64

	planeMu sync.Mutex // serializes Set{Histograms,Spans} refcounting

	timeBase = time.Now()
)

// DefaultSampleShift is the boot default: roots sample 1 in 32.
const DefaultSampleShift = 5

func init() { sampleShift.Store(DefaultSampleShift) }

// NowNs returns monotonic nanoseconds since boot (package init) — the
// clock every latency measurement here uses.
func NowNs() int64 { return int64(time.Since(timeBase)) }

// sampled rolls the root-sampling dice, 1 in 2^shift. Each task
// counts its own roots, because one counter shared by parallel tasks
// costs a cache-line transfer on every op. Task-less sites share
// sampleCtr.
func sampled(task *kbase.Task) bool {
	shift := sampleShift.Load()
	if shift == 0 {
		return true
	}
	var n uint64
	if task != nil {
		n = task.NextRoot()
	} else {
		n = sampleCtr.Add(1)
	}
	return n&(1<<shift-1) == 0
}

// TimingSample reports whether a manually-timed site (one that can't
// use OpTimer, like a kio SQE that completes on another goroutine)
// should take a timestamp now: histograms on, and the sampler says go.
func TimingSample() bool {
	return planeMode.Load()&planeHist != 0 && sampled(nil)
}

// SetHistograms turns op latency histograms on or off.
func SetHistograms(on bool) {
	planeMu.Lock()
	defer planeMu.Unlock()
	setPlaneBit(planeHist, on)
}

// SetSpans turns span tracing on or off. Enabling also enables the
// span:* tracepoints (reference counted), so span events reach the
// ring without a separate Enable call; disabling drops that reference.
func SetSpans(on bool) {
	planeMu.Lock()
	defer planeMu.Unlock()
	if !setPlaneBit(planeSpan, on) {
		return
	}
	if on {
		tpSpanBegin.Enable()
		tpSpanEnd.Enable()
		tpSpanSlow.Enable()
	} else {
		tpSpanBegin.Disable()
		tpSpanEnd.Disable()
		tpSpanSlow.Disable()
	}
}

// setPlaneBit flips one mode bit under planeMu; reports whether the
// bit actually changed.
func setPlaneBit(bit uint32, on bool) bool {
	cur := planeMode.Load()
	next := cur &^ bit
	if on {
		next = cur | bit
	}
	if next == cur {
		return false
	}
	planeMode.Store(next)
	return true
}

// SetSampleShift sets root-span sampling to 1 in 2^shift (0 samples
// everything; capped at 20) and returns the previous shift.
func SetSampleShift(shift uint32) uint32 {
	if shift > 20 {
		shift = 20
	}
	return sampleShift.Swap(shift)
}

// SampleShift returns the current root sampling shift.
func SampleShift() uint32 { return sampleShift.Load() }

// OpTimer is the in-flight state of one timed boundary op. The zero
// value's End is a no-op, so call sites stay branch-free:
//
//	t := opRead.Begin(task)
//	defer t.End()
type OpTimer struct {
	op        *Op
	task      *kbase.Task
	startNs   int64
	trace     uint64
	span      uint64
	prevTrace uint64
	prevSpan  uint64
	flags     uint32
}

func taskID(t *kbase.Task) int64 {
	if t == nil {
		return 0
	}
	return t.ID()
}

// Begin starts timing one traversal of the op by the given task (nil
// for ops with no kernel task, e.g. raw socket calls). Returns the
// zero OpTimer — free to End — when the latency plane is off or the
// sampler skips this root.
func (op *Op) Begin(task *kbase.Task) OpTimer {
	mode := planeMode.Load()
	if mode == 0 {
		return OpTimer{}
	}
	var pTrace, pSpan uint64
	if task != nil {
		pTrace, pSpan = task.SpanCtx()
	}
	// Parent-based sampling: inside a trace, always record (trees stay
	// complete); at a root, roll the dice once for the whole tree.
	if pTrace == 0 && !sampled(task) {
		return OpTimer{}
	}
	t := OpTimer{op: op, flags: mode}
	if mode&planeSpan != 0 {
		t.task = task
		t.prevTrace, t.prevSpan = pTrace, pSpan
		t.span = spanIDs.Add(1)
		t.trace = pTrace
		if t.trace == 0 {
			t.trace = t.span // root: the trace is named after its root span
		}
		if task != nil {
			task.SetSpanCtx(t.trace, t.span)
		}
		spansStarted.Add(1)
	}
	t.startNs = NowNs()
	if mode&planeSpan != 0 {
		tpSpanBegin.Emit4(taskID(task), t.trace, t.span, t.prevSpan, uint64(op.id))
	}
	return t
}

// End finishes the traversal: records the duration into the op's
// histogram, emits span:end, restores the task's previous span ctx,
// and — for a root span over the slow threshold — fires the watchdog.
func (t OpTimer) End() {
	if t.flags == 0 {
		return
	}
	durNs := uint64(NowNs() - t.startNs)
	if t.flags&planeHist != 0 {
		t.op.hist.Record(durNs)
	}
	if t.flags&planeSpan == 0 {
		return
	}
	if t.task != nil {
		t.task.SetSpanCtx(t.prevTrace, t.prevSpan)
	}
	tpSpanEnd.Emit4(taskID(t.task), t.trace, t.span, durNs, uint64(t.op.id))
	if t.prevTrace == 0 {
		if th := slowThresholdNs.Load(); th != 0 && durNs >= th {
			t.fireWatchdog(durNs)
		}
	}
}

// The slow-op watchdog.

// SlowOp is one watchdog capture: the root op that blew the threshold
// and the rendered span tree of everything underneath it.
type SlowOp struct {
	Op      string // root op name
	TraceID uint64
	Task    int64
	DurNs   uint64
	Tree    []string // rendered span tree, one line per span
}

var (
	slowThresholdNs atomic.Uint64
	lastSlow        atomic.Pointer[SlowOp]
)

// SetSlowOpThreshold arms the watchdog: any root span lasting d or
// longer is captured (0 disarms). Returns the previous threshold.
//
//kerncheck:ignore deadexport the watchdog's control surface, armed by pkg/safelinux's latency tests
func SetSlowOpThreshold(d time.Duration) time.Duration {
	prev := slowThresholdNs.Swap(uint64(max64(0, d.Nanoseconds())))
	return time.Duration(prev)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// LastSlowOp returns the most recent watchdog capture, or nil.
//
//kerncheck:ignore deadexport the watchdog's control surface, read by pkg/safelinux's latency tests
func LastSlowOp() *SlowOp { return lastSlow.Load() }

// ResetSlowOp clears the last capture (tests).
//
//kerncheck:ignore deadexport the watchdog's control surface, reset by pkg/safelinux's latency tests
func ResetSlowOp() { lastSlow.Store(nil) }

func (t OpTimer) fireWatchdog(durNs uint64) {
	spansSlow.Add(1)
	tpSpanSlow.Emit4(taskID(t.task), t.trace, t.span, durNs, uint64(t.op.id))
	rec := &SlowOp{
		Op:      t.op.name,
		TraceID: t.trace,
		Task:    taskID(t.task),
		DurNs:   durNs,
		Tree:    SpanTree(ring().Snapshot(), t.trace),
	}
	lastSlow.Store(rec)
}

// SpanTree reconstructs the causal tree of one trace from a slice of
// ring events and renders it, one line per span, children indented
// under parents in begin order:
//
//	vfs:syncall 1.52ms
//	  journal:commit 1.01ms
//	    kio:batch 740.0µs
//
// Spans whose begin event was overwritten by ring wraparound still
// appear if their end survived (flagged "(begin lost)" and parented
// at the root); a span still in flight renders "(in flight)".
func SpanTree(evs []Event, traceID uint64) []string {
	type node struct {
		span, parent uint64
		opID         uint32
		durNs        uint64
		ended        bool
		beginLost    bool
		children     []*node
	}
	nodes := make(map[uint64]*node)
	var order []*node
	beginID, endID := tpSpanBegin.id, tpSpanEnd.id
	for i := range evs {
		ev := &evs[i]
		if ev.A0 != traceID {
			continue
		}
		switch ev.TPID {
		case beginID:
			if nodes[ev.A1] == nil {
				n := &node{span: ev.A1, parent: ev.A2, opID: uint32(ev.A3)}
				nodes[ev.A1] = n
				order = append(order, n)
			}
		case endID:
			n := nodes[ev.A1]
			if n == nil {
				n = &node{span: ev.A1, beginLost: true, opID: uint32(ev.A3)}
				nodes[ev.A1] = n
				order = append(order, n)
			}
			n.durNs = ev.A2
			n.ended = true
			n.opID = uint32(ev.A3)
		}
	}
	var roots []*node
	for _, n := range order {
		if p := nodes[n.parent]; p != nil && n.parent != n.span {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var out []string
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(opName(n.opID))
		if n.ended {
			fmt.Fprintf(&b, " %s", fmtNs(n.durNs))
		} else {
			b.WriteString(" (in flight)")
		}
		if n.beginLost {
			b.WriteString(" (begin lost)")
		}
		out = append(out, b.String())
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}
