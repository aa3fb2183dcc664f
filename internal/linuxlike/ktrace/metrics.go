package ktrace

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The unified metrics plane.
//
// Before ktrace every subsystem grew its own Stats() accessor with
// its own struct, and nothing could enumerate "all the counters of
// this kernel". A Metrics registry inverts that: subsystems register
// a collector that emits (name, value) pairs, and the registry renders
// them all as a /proc-style text table or JSON. A subsystem's
// collector is the only readout of its counters: a caller holding one
// subsystem reads a single counter with Read, a caller holding a
// kernel reads its registry.
//
// v2 makes the registry typed. A Metric is either a counter or a
// histogram (percentile export), and aggregation semantics are
// explicit instead of accidental:
//
//   - Two *collectors* under one subsystem emitting the same name is
//     intentional aggregation (two mounted file systems, two TCP
//     endpoints): values sum, and Metric.Sources says how many
//     instances contributed.
//   - One collector emitting the same name twice in a single Gather is
//     a bug in that collector — historically it was silently summed
//     into a lie. The sum still happens (dropping data would be
//     worse), but GatherChecked reports each case as a typed
//     DupEmission so tests and the CLI can fail on it.

// CollectorFunc enumerates a subsystem's counters by calling emit for
// each. Collectors must be safe to call at any time from any
// goroutine; they read live atomics or take the subsystem's own locks.
type CollectorFunc func(emit func(name string, value uint64))

// Read runs c once and returns the value it emits for name. It panics
// when c never emits name, or emits it more than once (the case
// GatherChecked reports as a DupEmission), so a misspelt counter fails
// loudly instead of reading 0.
func Read(c CollectorFunc, name string) uint64 {
	var v uint64
	n := 0
	c(func(got string, value uint64) {
		if got == name {
			v, n = value, n+1
		}
	})
	if n != 1 {
		panic(fmt.Sprintf("ktrace: collector emitted %q %d times, want once", name, n))
	}
	return v
}

// HistSourceFunc enumerates a subsystem's histograms by calling emit
// with a point-in-time view of each. Like CollectorFunc it must be
// callable any time from any goroutine; the name set may be dynamic
// (e.g. one histogram per live lock class).
type HistSourceFunc func(emit func(name string, view HistView))

// Kind discriminates metric types.
type Kind uint8

const (
	// KindCounter is a monotonic (or at least summable) uint64.
	KindCounter Kind = iota
	// KindHistogram is a latency distribution exported as percentiles.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Metric is one gathered sample.
type Metric struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Kind      Kind   `json:"kind"`
	// Value is the counter value; for histograms it mirrors
	// Hist.Count so kind-blind consumers still see activity.
	Value uint64 `json:"value"`
	// Sources is how many registered collectors contributed to this
	// sample — >1 marks an intentional cross-instance sum.
	Sources int       `json:"sources,omitempty"`
	Hist    *HistView `json:"hist,omitempty"`
}

// DupEmission records one collector emitting the same metric name
// more than once within a single gather — a subsystem bug the old
// registry silently summed over.
type DupEmission struct {
	Subsystem string
	Name      string
	Count     int // emissions of this name by the one collector
}

func (d DupEmission) Error() string {
	return fmt.Sprintf("ktrace: collector for %q emitted %q %d times in one gather",
		d.Subsystem, d.Name, d.Count)
}

// ErrDupRegistration is returned when a histogram is registered under
// a (subsystem, name) that already has one.
var ErrDupRegistration = errors.New("ktrace: duplicate histogram registration")

// Metrics is a registry of subsystem collectors and histograms.
type Metrics struct {
	mu          sync.Mutex
	collectors  map[string][]CollectorFunc
	hists       map[string]map[string]*Histogram
	histSources map[string][]HistSourceFunc
	includeOps  bool
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		collectors:  make(map[string][]CollectorFunc),
		hists:       make(map[string]map[string]*Histogram),
		histSources: make(map[string][]HistSourceFunc),
	}
}

// Register adds a collector under a subsystem name. Multiple
// collectors may share a subsystem (e.g. two mounted file systems);
// their samples are summed, with Metric.Sources counting the
// contributing instances.
func (m *Metrics) Register(subsystem string, c CollectorFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.collectors[subsystem] = append(m.collectors[subsystem], c)
}

// RegisterHistogram adds a histogram metric under (subsystem, name).
// Unlike counters, two histograms cannot share a name — percentiles
// of a merged stream are not the merge of percentiles — so a second
// registration returns ErrDupRegistration.
func (m *Metrics) RegisterHistogram(subsystem, name string, h *Histogram) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sub := m.hists[subsystem]
	if sub == nil {
		sub = make(map[string]*Histogram)
		m.hists[subsystem] = sub
	}
	if _, ok := sub[name]; ok {
		return fmt.Errorf("%w: %s.%s", ErrDupRegistration, subsystem, name)
	}
	sub[name] = h
	return nil
}

// RegisterHistSource adds a dynamic histogram enumerator under a
// subsystem (for name sets not known at registration, e.g. lock
// classes).
func (m *Metrics) RegisterHistSource(subsystem string, fn HistSourceFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.histSources[subsystem] = append(m.histSources[subsystem], fn)
}

// RegisterOps includes every declared boundary Op's latency histogram
// in this registry, as <op-subsystem>.<op>_ns — the enumeration is
// live, so ops declared after this call still appear.
func (m *Metrics) RegisterOps() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.includeOps = true
}

// Gather runs every collector and returns the samples sorted by
// (subsystem, name). See GatherChecked for duplicate-emission
// reporting.
func (m *Metrics) Gather() []Metric {
	out, _ := m.GatherChecked()
	return out
}

// GatherChecked is Gather plus the list of within-collector duplicate
// emissions detected during this gather (empty when every collector
// is well behaved).
func (m *Metrics) GatherChecked() ([]Metric, []DupEmission) {
	m.mu.Lock()
	subs := make(map[string][]CollectorFunc, len(m.collectors))
	for k, v := range m.collectors {
		subs[k] = append([]CollectorFunc(nil), v...)
	}
	hists := make(map[string]map[string]*Histogram, len(m.hists))
	for k, v := range m.hists {
		inner := make(map[string]*Histogram, len(v))
		for n, h := range v {
			inner[n] = h
		}
		hists[k] = inner
	}
	hsrcs := make(map[string][]HistSourceFunc, len(m.histSources))
	for k, v := range m.histSources {
		hsrcs[k] = append([]HistSourceFunc(nil), v...)
	}
	includeOps := m.includeOps
	m.mu.Unlock()

	var out []Metric
	var dups []DupEmission

	type cell struct {
		val     uint64
		sources int
	}
	for sub, cs := range subs {
		vals := make(map[string]*cell)
		for _, c := range cs {
			perCall := make(map[string]int)
			c(func(name string, value uint64) {
				perCall[name]++
				cl := vals[name]
				if cl == nil {
					cl = &cell{}
					vals[name] = cl
				}
				cl.val += value
			})
			for name, n := range perCall {
				vals[name].sources++
				if n > 1 {
					dups = append(dups, DupEmission{Subsystem: sub, Name: name, Count: n})
				}
			}
		}
		for name, cl := range vals {
			out = append(out, Metric{
				Subsystem: sub, Name: name, Kind: KindCounter,
				Value: cl.val, Sources: cl.sources,
			})
		}
	}

	emitHist := func(sub, name string, view HistView) {
		v := view
		out = append(out, Metric{
			Subsystem: sub, Name: name, Kind: KindHistogram,
			Value: v.Count, Sources: 1, Hist: &v,
		})
	}
	for sub, byName := range hists {
		for name, h := range byName {
			emitHist(sub, name, h.View())
		}
	}
	for sub, fns := range hsrcs {
		for _, fn := range fns {
			fn(func(name string, view HistView) { emitHist(sub, name, view) })
		}
	}
	if includeOps {
		for _, op := range Ops() {
			emitHist(op.Subsystem(), op.Short()+"_ns", op.Hist().View())
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Subsystem != out[j].Subsystem {
			return out[i].Subsystem < out[j].Subsystem
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	sort.Slice(dups, func(i, j int) bool {
		if dups[i].Subsystem != dups[j].Subsystem {
			return dups[i].Subsystem < dups[j].Subsystem
		}
		return dups[i].Name < dups[j].Name
	})
	return out, dups
}

// RenderText renders the /proc-style table: one "subsystem.name value"
// line per counter, one "subsystem.name count=… p50=… …" line per
// histogram, sorted.
func (m *Metrics) RenderText() string {
	var b strings.Builder
	for _, s := range m.Gather() {
		if s.Kind == KindHistogram && s.Hist != nil {
			h := s.Hist
			fmt.Fprintf(&b, "%s.%s count=%d p50=%d p90=%d p99=%d p999=%d max=%d\n",
				s.Subsystem, s.Name, h.Count, h.P50, h.P90, h.P99, h.P999, h.Max)
			continue
		}
		fmt.Fprintf(&b, "%s.%s %d\n", s.Subsystem, s.Name, s.Value)
	}
	return b.String()
}

// RenderJSON renders the samples as a nested JSON object
// {subsystem: {name: value}}; histogram values are objects with
// count/sum/max and the exported percentiles.
func (m *Metrics) RenderJSON() ([]byte, error) {
	obj := make(map[string]map[string]any)
	for _, s := range m.Gather() {
		sub := obj[s.Subsystem]
		if sub == nil {
			sub = make(map[string]any)
			obj[s.Subsystem] = sub
		}
		if s.Kind == KindHistogram && s.Hist != nil {
			sub[s.Name] = s.Hist
		} else {
			sub[s.Name] = s.Value
		}
	}
	return json.MarshalIndent(obj, "", "  ")
}

// Lookup returns the gathered value of one metric and whether it was
// present (for histograms, the sample count).
//
//kerncheck:ignore deadexport the metric query other packages' tests assert through
func (m *Metrics) Lookup(subsystem, name string) (uint64, bool) {
	for _, s := range m.Gather() {
		if s.Subsystem == subsystem && s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// LookupHist returns the gathered percentile view of one histogram
// metric and whether it was present.
//
//kerncheck:ignore deadexport the metric query other packages' tests assert through
func (m *Metrics) LookupHist(subsystem, name string) (HistView, bool) {
	for _, s := range m.Gather() {
		if s.Subsystem == subsystem && s.Name == name && s.Kind == KindHistogram && s.Hist != nil {
			return *s.Hist, true
		}
	}
	return HistView{}, false
}

// RegisterBuiltin registers ktrace's own planes on a registry: per-
// tracepoint hit/filter counters and span-plane counters under
// "ktrace", the lockstat table (counters + wait/hold histograms)
// under "lockstat", and every declared boundary Op's latency
// histogram under its own subsystem.
func RegisterBuiltin(m *Metrics) {
	m.Register("ktrace", CollectTracepoints)
	m.Register("ktrace", collectSpanPlane)
	m.RegisterOps()
	RegisterLockStat(m)
}

// CollectTracepoints emits hits and filtered counts for every
// declared tracepoint that has seen at least one event.
func CollectTracepoints(emit func(name string, value uint64)) {
	for _, tp := range List() {
		h, f := tp.Hits(), tp.Filtered()
		if h == 0 && f == 0 {
			continue
		}
		emit(tp.Name()+".hits", h)
		if f > 0 {
			emit(tp.Name()+".filtered", f)
		}
	}
}

// collectSpanPlane emits the span plane's own health counters.
func collectSpanPlane(emit func(name string, value uint64)) {
	if s := spansStarted.Load(); s > 0 {
		emit("spans.started", s)
	}
	if s := spansSlow.Load(); s > 0 {
		emit("spans.slow", s)
	}
}
