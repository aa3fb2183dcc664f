package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// tiny is a run small enough for go test -race: 1/256 of every data
// set and a fixed op count.
func tiny(seed uint64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: 1, scale: 1.0 / 256, trace: trace, ops: 64}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/kbench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, kbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, kbench %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name      string
		file, src []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, kbench %d", c.name, len(c.file), len(c.src))
			continue
		}
		for i := range c.src {
			if c.file[i] != c.src[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, kbench %+v", c.name, i, c.file[i], c.src[i])
			}
		}
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at a
// tiny size: no failed op, no mismatch, no oops, no ownership
// violation, and exactly the metrics BENCHMARK.json names, with their
// units.
func TestSmokeAllWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(w, tiny(1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted != 64 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v",
					w.name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace && w.safe {
				for name, v := range rec.Metrics {
					for _, legacyOnly := range []string{"kio.", "journal.", "bufcache."} {
						if strings.HasPrefix(name, legacyOnly) && v.Value != 0 {
							t.Errorf("%s: %s = %v, want 0 on the safe stack", w.name, name, v.Value)
						}
					}
				}
			}
		}
	}
}

// TestDeterminism: one seed gives one op stream and the same exact
// counts; another seed gives another op stream.
func TestDeterminism(t *testing.T) {
	exact := []string{"fail_ratio", "sim_jiffies_per_op", "net.packets_per_op", "net.steps_per_op"}
	for _, w := range workloads {
		var recs []*record
		for _, seed := range []uint64{7, 7, 8} {
			rec, err := runWorkload(w, tiny(seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			recs = append(recs, rec)
		}
		a, b, c := recs[0], recs[1], recs[2]
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, op-stream digests %s and %s", w.name, a.Digest, b.Digest)
		}
		for _, k := range exact {
			if a.Info[k] != b.Info[k] {
				t.Errorf("%s: same seed, %s = %v and %v", w.name, k, a.Info[k], b.Info[k])
			}
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same op-stream digest %s", w.name, a.Digest)
		}
	}
}

// checkTampered runs the workload once with tamper applied after
// set-up; the run must exit 1, print a result line with correct false,
// and name a model mismatch.
func checkTampered(t *testing.T, name string, tamper func(*env)) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	cfg := tiny(3, false)
	cfg.tamper = tamper
	var out bytes.Buffer
	status := runAll(cfg, []workload{w}, options{runs: 1, sets: 1}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	if status != 1 || res.Correct || !strings.Contains(out.String(), "model mismatch") {
		t.Errorf("%s: tampering went unnoticed (status %d, correct %v):\n%s", name, status, res.Correct, out.String())
	}
}

// TestOracleCatchesFileCorruption overwrites file bytes through the
// VFS behind the model's back.
func TestOracleCatchesFileCorruption(t *testing.T) {
	for _, name := range []string{"fs-hot.legacy", "fs-hot.safe"} {
		checkTampered(t, name, func(e *env) {
			for _, f := range e.drv.(*fsHot).files {
				if _, err := e.k.VFS.Pwrite(e.task, f.fd, make([]byte, hotSize), 0); err != kbase.EOK {
					t.Errorf("tamper pwrite: errno %d", int(err))
				}
			}
		})
	}
}

// TestOracleCatchesEchoCorruption puts a stray byte on every
// connection's server-to-client stream, so the next response the
// client reads is off by one byte.
func TestOracleCatchesEchoCorruption(t *testing.T) {
	for _, name := range []string{"net-rr.legacy", "net-rr.safe"} {
		checkTampered(t, name, func(e *env) {
			for _, c := range e.drv.(*netRR).conns {
				if err := c.srv.Send([]byte{0xff}); err != kbase.EOK {
					t.Errorf("tamper send: errno %d", int(err))
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaledBy := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 90, 110}
	for _, c := range []struct {
		name       string
		base, next []float64
		want       string
	}{
		{"faster", base, scaledBy(1.2), verdictGain},
		{"slower", base, scaledBy(0.8), verdictRegression},
		{"same", base, scaledBy(1.0), verdictSame},
		{"noisy parent", noisy, scaledBy(1.01), verdictUnresolved},
	} {
		if got, _ := verdict(rate, c.base, c.next); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
