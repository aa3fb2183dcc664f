package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json mirrors these
// tables; the schema test holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd metrics come from untraced runs. The timing bounds are as
// wide as allowed: on the 2-vCPU host the baseline was measured on,
// the whole machine's speed drifts by 10-20% over minutes (every
// timing of a run, the pure-CPU fs-hot.safe included, moves together),
// so a tighter bound would flag drift as regression. Paired runs with
// kbench compare resolve smaller changes. The heap is nearly exact.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer metrics come from the traced run (-trace 1).
var perLayer = []metricDef{
	{"vfs.open_ns", "ns", "lower", 0},
	{"vfs.close_ns", "ns", "lower", 0},
	{"vfs.pread_ns", "ns", "lower", 0},
	{"vfs.pwrite_ns", "ns", "lower", 0},
	{"vfs.fsync_ns", "ns", "lower", 0},
	{"vfs.stat_ns", "ns", "lower", 0},
	{"vfs.unlink_ns", "ns", "lower", 0},
	{"vfs.dcache_hit_ratio", "ratio", "higher", 0},
	{"vfs.gate_ns_per_op", "ns/op", "lower", 0},
	{"compartment.fs_ns_per_op", "ns/op", "lower", 0},
	{"compartment.net_ns_per_op", "ns/op", "lower", 0},
	{"fs.self_ns_per_op", "ns/op", "lower", 0},
	{"journal.commit_ns_per_op", "ns/op", "lower", 0},
	{"journal.commits_per_op", "count/op", "lower", 0},
	{"journal.blocks_per_commit", "blocks", "higher", 0},
	{"journal.checkpoint_ns_per_op", "ns/op", "lower", 0},
	{"bufcache.hit_ratio", "ratio", "higher", 0},
	{"bufcache.fill_ns_per_op", "ns/op", "lower", 0},
	{"bufcache.sync_ns_per_op", "ns/op", "lower", 0},
	{"bufcache.writeback_per_op", "count/op", "lower", 0},
	{"kio.batch_ns_per_op", "ns/op", "lower", 0},
	{"kio.sqe_p50_ns", "ns", "lower", 0},
	{"kio.sqes_per_batch", "count", "higher", 0},
	{"kio.merge_ratio", "ratio", "higher", 0},
	{"kio.copies_avoided_ratio", "ratio", "higher", 0},
	{"blockdev.reads_per_op", "count/op", "lower", 0},
	{"blockdev.writes_per_op", "count/op", "lower", 0},
	{"blockdev.flushes_per_op", "count/op", "lower", 0},
	{"own.live_cells", "count", "lower", 0},
	{"net.send_ns", "ns", "lower", 0},
	{"net.recv_ns", "ns", "lower", 0},
	{"net.step_ns", "ns", "lower", 0},
	{"net.steps_per_op", "count/op", "lower", 0},
	{"net.connect_ns", "ns", "lower", 0},
	{"net.packets_per_op", "count/op", "lower", 0},
	{"net.drop_ratio", "ratio", "lower", 0},
	{"net.retransmits_per_op", "count/op", "lower", 0},
	{"net.sim_jiffies_per_op", "jiffies/op", "lower", 0},
	{"safetcp.segments_per_op", "count/op", "lower", 0},
	{"safetcp.bad_segments", "count", "lower", 0},
	{"harness.coverage", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// quartiles returns the quartiles of vs with the method of Python's
// statistics.quantiles(vs, n=4) (the "exclusive" method), so spreads
// read the same here and in any script that re-checks a result file.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// reservoir keeps a uniform fixed-size sample of op latencies, so the
// benchmark's memory does not grow with the run and the quantiles are
// read from measured values rather than histogram bucket bounds.
type reservoir struct {
	samples []float64
	seen    uint64
	max     float64
	rng     uint64
}

func newReservoir(size int) *reservoir {
	return &reservoir{samples: make([]float64, 0, size), rng: 0x9e3779b97f4a7c15}
}

func (r *reservoir) add(v float64) {
	r.seen++
	r.max = max(r.max, v)
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, v)
		return
	}
	// splitmix64: the sample choice must not draw from the op stream.
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if j := z % r.seen; j < uint64(len(r.samples)) {
		r.samples[j] = v
	}
}

// quantile interpolates linearly between the closest ranks. It sorts
// the sample in place, so call it once sampling is over.
func (r *reservoir) quantile(q float64) float64 {
	d := r.samples
	if len(d) == 0 {
		return 0
	}
	sort.Float64s(d)
	pos := q * float64(len(d)-1)
	lo := int(pos)
	if lo+1 >= len(d) {
		return d[len(d)-1]
	}
	return d[lo] + (d[lo+1]-d[lo])*(pos-float64(lo))
}
