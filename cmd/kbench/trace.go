package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"safelinux/internal/linuxlike/ktrace"
)

// Benchmark spans. Every workload op is a root span; the op's draw
// from the stream (gen), its model check (check) and every public
// kernel call it makes are its children.
type spanID uint8

const (
	spanOp spanID = iota
	spanGen
	spanCheck
	spanOpen
	spanClose
	spanPread
	spanPwrite
	spanFsync
	spanStat
	spanUnlink
	spanConnect
	spanAccept
	spanSend
	spanRecv
	spanStep
	spanNetClose
	numSpans
)

var spanNames = [numSpans]string{
	"op", "gen", "check",
	"vfs.open", "vfs.close", "vfs.pread", "vfs.pwrite", "vfs.fsync", "vfs.stat", "vfs.unlink",
	"net.connect", "net.accept", "net.send", "net.recv", "net.step", "net.close",
}

// spanKeepEvery: full span records are kept for 1 op in this many.
const spanKeepEvery = 64

type spanAgg struct {
	Count uint64 `json:"count"`
	SumNs int64  `json:"sum_ns"`
}

// spanRec is one kept span. Trace is the op index; the root span has
// ID 1 and Parent 0, its children Parent 1.
type spanRec struct {
	Trace   uint64 `json:"trace"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records the benchmark's spans: aggregates over every op, full
// records for 1 op in spanKeepEvery. Off, begin and end cost a branch.
type tracer struct {
	on    bool
	base  time.Time
	agg   [numSpans]spanAgg
	op    uint64
	keep  bool
	child uint32
	spans []spanRec
}

// start turns the tracer on; span times count from the first start.
func (t *tracer) start() {
	t.on = true
	if t.base.IsZero() {
		t.base = time.Now()
	}
}

// startOp opens op i's root span and returns its start.
func (t *tracer) startOp(i uint64) int64 {
	if !t.on {
		return 0
	}
	t.op, t.keep, t.child = i, i%spanKeepEvery == 0, 1
	return t.begin()
}

func (t *tracer) begin() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) end(id spanID, start int64) {
	if !t.on {
		return
	}
	now := int64(time.Since(t.base))
	a := &t.agg[id]
	a.Count++
	a.SumNs += now - start
	if !t.keep {
		return
	}
	rec := spanRec{Trace: t.op, ID: 1, Name: spanNames[id], StartNs: start, EndNs: now}
	if id != spanOp {
		t.child++
		rec.ID, rec.Parent = t.child, 1
	}
	t.spans = append(t.spans, rec)
}

func (t *tracer) sum(id spanID) float64 { return float64(t.agg[id].SumNs) }

func (t *tracer) mean(id spanID) float64 {
	if t.agg[id].Count == 0 {
		return 0
	}
	return float64(t.agg[id].SumNs) / float64(t.agg[id].Count)
}

func (t *tracer) aggregates() map[string]spanAgg {
	out := make(map[string]spanAgg)
	for id, a := range t.agg {
		if a.Count > 0 {
			out[spanNames[id]] = a
		}
	}
	return out
}

func writeSpans(path, workload string, spans []spanRec) error {
	data, err := json.Marshal(map[string]any{"workload": workload, "keep_every": spanKeepEvery, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// Kernel instruments read around the traced phase: op histograms
// (reset at the start, so a view is the phase's delta) and registry
// counters (differenced).
var layerOps = []string{
	"compartment:fs", "compartment:net",
	"journal:commit", "journal:checkpoint",
	"bufcache:fill", "bufcache:sync",
	"kio:batch",
}

func opSum(name string) float64 {
	if op := ktrace.OpByName(name); op != nil {
		return float64(op.Hist().View().Sum)
	}
	return 0
}

func resetLayerOps() {
	for _, name := range layerOps {
		if op := ktrace.OpByName(name); op != nil {
			op.Hist().Reset()
		}
	}
}

// counters gathers every registry counter as "subsystem.name".
func counters(m *ktrace.Metrics) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range m.Gather() {
		if s.Kind == ktrace.KindCounter {
			out[s.Subsystem+"."+s.Name] = float64(s.Value)
		}
	}
	return out
}

// netCounts are the simulator-level totals the net metrics difference.
type netCounts struct {
	jiffies, sent, dropped, steps, retrans float64
}

// plus adds the change from before to after to c.
func (c netCounts) plus(before, after netCounts) netCounts {
	return netCounts{
		jiffies: c.jiffies + after.jiffies - before.jiffies,
		sent:    c.sent + after.sent - before.sent,
		dropped: c.dropped + after.dropped - before.dropped,
		steps:   c.steps + after.steps - before.steps,
		retrans: c.retrans + after.retrans - before.retrans,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTotals accumulates what the per-layer metrics are derived from
// over the traced phases of a run, one per kernel.
type layerTotals struct {
	ops, wallNs float64
	counters    map[string]float64 // registry counter deltas
	opNs        map[string]float64 // op histogram sums (reset per phase)
	net         netCounts          // deltas
	sqeP50      []float64          // per phase; kernels do not share an engine
	liveCells   float64            // at the end of the last phase
}

// add folds one traced phase in. The op histograms were reset when
// the phase began, so their sums are the phase's.
func (t *layerTotals) add(p phase, before, after map[string]float64, netBefore, netAfter netCounts, sqeP50 float64) {
	if t.counters == nil {
		t.counters, t.opNs = map[string]float64{}, map[string]float64{}
	}
	t.ops += float64(p.ops)
	t.wallNs += float64(p.wall)
	for name, v := range after {
		t.counters[name] += v - before[name]
	}
	for _, name := range layerOps {
		t.opNs[name] += opSum(name)
	}
	t.net = t.net.plus(netBefore, netAfter)
	t.sqeP50 = append(t.sqeP50, sqeP50)
	t.liveCells = after["own.live_cells"]
}

// perLayerMetrics derives every per-layer metric but the trace
// overhead, which needs the untraced rate; a layer that does not run
// on the workload reads 0.
func perLayerMetrics(t *layerTotals, tr *tracer) map[string]float64 {
	d := func(name string) float64 { return t.counters[name] }
	perOp := func(v float64) float64 { return ratio(v, t.ops) }

	vfsSpans := 0.0
	for id := spanOpen; id <= spanUnlink; id++ {
		vfsSpans += tr.sum(id)
	}
	fsGate := t.opNs["compartment:fs"]
	commit, ckpt := t.opNs["journal:commit"], t.opNs["journal:checkpoint"]
	fillNs, syncNs := t.opNs["bufcache:fill"], t.opNs["bufcache:sync"]
	// The fs module's own time: the fs compartment minus the layers it
	// calls. A checkpoint nests a bufcache sync, so the sync and
	// checkpoint totals overlap; counting the larger of the two
	// subtracts each nanosecond once when either dominates.
	below := commit + fillNs + max(syncNs, ckpt)
	_, sqeP50, _ := quartiles(t.sqeP50)

	return map[string]float64{
		"vfs.open_ns":                  tr.mean(spanOpen),
		"vfs.close_ns":                 tr.mean(spanClose),
		"vfs.pread_ns":                 tr.mean(spanPread),
		"vfs.pwrite_ns":                tr.mean(spanPwrite),
		"vfs.fsync_ns":                 tr.mean(spanFsync),
		"vfs.stat_ns":                  tr.mean(spanStat),
		"vfs.unlink_ns":                tr.mean(spanUnlink),
		"vfs.dcache_hit_ratio":         ratio(d("vfs.dcache_hits"), d("vfs.dcache_hits")+d("vfs.dcache_misses")),
		"vfs.gate_ns_per_op":           perOp(max(0, vfsSpans-fsGate)),
		"compartment.fs_ns_per_op":     perOp(fsGate),
		"compartment.net_ns_per_op":    perOp(t.opNs["compartment:net"]),
		"fs.self_ns_per_op":            perOp(max(0, fsGate-below)),
		"journal.commit_ns_per_op":     perOp(commit),
		"journal.commits_per_op":       perOp(d("journal.commits")),
		"journal.blocks_per_commit":    ratio(d("journal.blocks_logged"), d("journal.commits")),
		"journal.checkpoint_ns_per_op": perOp(ckpt),
		"bufcache.hit_ratio":           ratio(d("bufcache.hits"), d("bufcache.hits")+d("bufcache.misses")),
		"bufcache.fill_ns_per_op":      perOp(fillNs),
		"bufcache.sync_ns_per_op":      perOp(syncNs),
		"bufcache.writeback_per_op":    perOp(d("bufcache.writeback")),
		"kio.batch_ns_per_op":          perOp(t.opNs["kio:batch"]),
		"kio.sqe_p50_ns":               sqeP50,
		"kio.sqes_per_batch":           ratio(d("kio.submitted"), d("kio.batches")),
		"kio.merge_ratio":              ratio(d("kio.merged"), d("kio.submitted")),
		"kio.copies_avoided_ratio":     ratio(d("kio.copies_avoided"), d("kio.copies_avoided")+d("kio.copies_performed")),
		"blockdev.reads_per_op":        perOp(d("blockdev.reads")),
		"blockdev.writes_per_op":       perOp(d("blockdev.writes")),
		"blockdev.flushes_per_op":      perOp(d("blockdev.flushes")),
		"own.live_cells":               t.liveCells,
		"net.send_ns":                  tr.mean(spanSend),
		"net.recv_ns":                  tr.mean(spanRecv),
		"net.step_ns":                  tr.mean(spanStep),
		"net.connect_ns":               tr.mean(spanConnect),
		"net.steps_per_op":             perOp(t.net.steps),
		"net.packets_per_op":           perOp(t.net.sent),
		"net.drop_ratio":               ratio(t.net.dropped, t.net.sent),
		"net.retransmits_per_op":       perOp(t.net.retrans),
		"net.sim_jiffies_per_op":       perOp(t.net.jiffies),
		"safetcp.segments_per_op":      perOp(d("safetcp.segments")),
		"safetcp.bad_segments":         d("safetcp.bad_segments"),
		"harness.coverage":             ratio(tr.sum(spanOp), t.wallNs),
	}
}
