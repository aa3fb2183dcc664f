package ktrace

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestGatherCheckedDupEmission: one collector emitting a name twice in
// a single gather is the bug v2 makes visible — still summed (dropping
// data would be worse) but reported as a typed DupEmission. Read, the
// one-collector readout, returns a single emission and panics where
// GatherChecked would report a dup, or on a name the collector never
// emits.
func TestGatherCheckedDupEmission(t *testing.T) {
	m := NewMetrics()
	buggy := func(emit func(string, uint64)) {
		emit("x", 3)
		emit("x", 4)
		emit("y", 1)
	}
	m.Register("buggy", buggy)
	if v := Read(buggy, "y"); v != 1 {
		t.Fatalf("Read(y) = %d, want 1", v)
	}
	for _, name := range []string{"x", "z"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Read(%s) did not panic", name)
				}
			}()
			Read(buggy, name)
		}()
	}
	metrics, dups := m.GatherChecked()
	if len(dups) != 1 {
		t.Fatalf("got %d dup reports, want 1: %v", len(dups), dups)
	}
	d := dups[0]
	if d.Subsystem != "buggy" || d.Name != "x" || d.Count != 2 {
		t.Fatalf("dup = %+v, want buggy.x emitted 2 times", d)
	}
	var derr error = d
	if !strings.Contains(derr.Error(), "buggy") || !strings.Contains(derr.Error(), `"x"`) {
		t.Fatalf("DupEmission.Error() unhelpful: %s", derr)
	}
	if v, ok := m.Lookup("buggy", "x"); !ok || v != 7 {
		t.Fatalf("dup values not summed: got %d", v)
	}
	// Sources still counts collectors, not emissions.
	for _, s := range metrics {
		if s.Subsystem == "buggy" && s.Name == "x" && s.Sources != 1 {
			t.Fatalf("Sources = %d for a single collector, want 1", s.Sources)
		}
	}
}

// TestCrossCollectorSumIsIntentional: two collectors sharing a
// subsystem and a name is deliberate aggregation (two endpoints, two
// mounts) — summed, Sources counts both, no dup report.
func TestCrossCollectorSumIsIntentional(t *testing.T) {
	m := NewMetrics()
	m.Register("safeish", func(emit func(string, uint64)) { emit("segments", 10) })
	m.Register("safeish", func(emit func(string, uint64)) { emit("segments", 5) })
	metrics, dups := m.GatherChecked()
	if len(dups) != 0 {
		t.Fatalf("cross-collector sum misreported as dup: %v", dups)
	}
	found := false
	for _, s := range metrics {
		if s.Subsystem == "safeish" && s.Name == "segments" {
			found = true
			if s.Value != 15 || s.Sources != 2 {
				t.Fatalf("got value=%d sources=%d, want 15 from 2 sources", s.Value, s.Sources)
			}
		}
	}
	if !found {
		t.Fatal("summed metric missing from gather")
	}
}

func TestRegisterHistogramDuplicate(t *testing.T) {
	m := NewMetrics()
	if err := m.RegisterHistogram("sub", "lat_ns", NewHistogram()); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	err := m.RegisterHistogram("sub", "lat_ns", NewHistogram())
	if !errors.Is(err, ErrDupRegistration) {
		t.Fatalf("second registration err = %v, want ErrDupRegistration", err)
	}
	// Same name under a different subsystem is fine.
	if err := m.RegisterHistogram("other", "lat_ns", NewHistogram()); err != nil {
		t.Fatalf("cross-subsystem registration: %v", err)
	}
}

func TestHistogramMetricExport(t *testing.T) {
	m := NewMetrics()
	h := NewHistogram()
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	if err := m.RegisterHistogram("iotest", "lat_ns", h); err != nil {
		t.Fatal(err)
	}
	m.Register("iotest", func(emit func(string, uint64)) { emit("ops", 100) })

	view, ok := m.LookupHist("iotest", "lat_ns")
	if !ok || view.Count != 100 {
		t.Fatalf("LookupHist: ok=%v count=%d", ok, view.Count)
	}
	// Kind-blind Lookup sees the sample count.
	if v, ok := m.Lookup("iotest", "lat_ns"); !ok || v != 100 {
		t.Fatalf("Lookup on a histogram = %d,%v, want count 100", v, ok)
	}

	text := m.RenderText()
	if !strings.Contains(text, "iotest.ops 100\n") {
		t.Fatalf("counter line missing:\n%s", text)
	}
	if !strings.Contains(text, "iotest.lat_ns count=100 p50=") {
		t.Fatalf("histogram line missing:\n%s", text)
	}

	blob, err := m.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]map[string]json.RawMessage
	if err := json.Unmarshal(blob, &obj); err != nil {
		t.Fatal(err)
	}
	var hv HistView
	if err := json.Unmarshal(obj["iotest"]["lat_ns"], &hv); err != nil {
		t.Fatalf("histogram JSON is not a HistView object: %v", err)
	}
	if hv.Count != 100 || hv.P50 != view.P50 {
		t.Fatalf("JSON view %+v does not match gathered %+v", hv, view)
	}
	var ops uint64
	if err := json.Unmarshal(obj["iotest"]["ops"], &ops); err != nil || ops != 100 {
		t.Fatalf("counter JSON = %s (%v)", obj["iotest"]["ops"], err)
	}
}

func TestRegisterOpsLiveEnumeration(t *testing.T) {
	m := NewMetrics()
	m.RegisterOps()
	op := NewOp("opmetric:probe")
	op.Hist().Record(500)
	view, ok := m.LookupHist("opmetric", "probe_ns")
	if !ok {
		t.Fatal("op histogram not exported as opmetric.probe_ns")
	}
	if view.Count == 0 {
		t.Fatal("op histogram view empty")
	}
	// Ops declared after RegisterOps appear too (live enumeration).
	late := NewOp("opmetric:late")
	late.Hist().Record(7)
	if _, ok := m.LookupHist("opmetric", "late_ns"); !ok {
		t.Fatal("op declared after RegisterOps not exported")
	}
}

func TestHistSourceDynamicNames(t *testing.T) {
	m := NewMetrics()
	views := map[string]HistView{
		"classA.wait": {Count: 3, Max: 90, P50: 10, P99: 80},
		"classB.hold": {Count: 1, Max: 5, P50: 5, P99: 5},
	}
	m.RegisterHistSource("locktest", func(emit func(string, HistView)) {
		for name, v := range views {
			emit(name, v)
		}
	})
	for name, want := range views {
		got, ok := m.LookupHist("locktest", name)
		if !ok || got != want {
			t.Fatalf("%s: got %+v ok=%v, want %+v", name, got, ok, want)
		}
	}
}
