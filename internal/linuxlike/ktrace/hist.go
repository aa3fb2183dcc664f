package ktrace

import (
	"math/bits"
	"sync/atomic"
)

// Log-linear (HDR-style) latency histograms.
//
// The bucketing scheme is the hdrhistogram/ftrace "log-linear" split:
// each power-of-two range [2^e, 2^(e+1)) is divided into
// histSubCount linear sub-buckets, so relative error is bounded at
// 1/histSubCount (~3%) across the whole 64-bit range while the
// bucket index is three ALU ops — no floating point, no search:
//
//	v < 32:  idx = v                      (exact small values)
//	v >= 32: e = floor(log2 v)            (bits.Len64)
//	         idx = (e-5)*32 + (v >> (e-5))
//
// Recording is wait-free: one counter fetch-add plus count/sum adds
// and a CAS-loop max, all on per-shard atomics. Shards decorrelate
// concurrent recorders (picked from the sample's own bits — no
// goroutine id, no unsafe); readers merge shards at snapshot time.

const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 linear sub-buckets per octave
	// histBuckets covers the full uint64 range: 32 exact buckets for
	// v < 32, then 32 per octave for e in [5, 63].
	histBuckets = (64 - histSubBits + 1) * histSubCount

	histShards = 4
)

// bucketIdx maps a sample to its bucket.
func bucketIdx(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := uint(bits.Len64(v) - 1 - histSubBits)
	return int(shift)*histSubCount + int(v>>shift)
}

// bucketMax returns the largest value a bucket holds (the value a
// quantile reports, clamped to the observed max).
func bucketMax(idx int) uint64 {
	if idx < 2*histSubCount {
		return uint64(idx)
	}
	shift := uint(idx/histSubCount - 1)
	m := uint64(idx) - uint64(shift)*histSubCount
	return (m+1)<<shift - 1
}

type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Histogram is a lock-free, sharded, log-linear histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	shards [histShards]histShard
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	sh := &h.shards[(v^(v>>histSubBits))&(histShards-1)]
	sh.count.Add(1)
	sh.sum.Add(v)
	for {
		cur := sh.max.Load()
		if v <= cur || sh.max.CompareAndSwap(cur, v) {
			break
		}
	}
	sh.buckets[bucketIdx(v)].Add(1)
}

// Reset zeroes the histogram. Concurrent Records may survive it.
func (h *Histogram) Reset() {
	for i := range h.shards {
		sh := &h.shards[i]
		sh.count.Store(0)
		sh.sum.Store(0)
		sh.max.Store(0)
		for j := range sh.buckets {
			sh.buckets[j].Store(0)
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, merged across
// shards. Quantiles are computed against the copy, so one snapshot
// yields a consistent set of percentiles.
type HistSnapshot struct {
	Count uint64
	Sum   uint64
	Max   uint64

	buckets [histBuckets]uint64
}

// Snapshot merges the shards into a consistent-enough copy (samples
// recorded mid-snapshot may or may not be included).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
		for j := range sh.buckets {
			s.buckets[j] += sh.buckets[j].Load()
		}
	}
	return s
}

// Quantile returns the value at quantile q in [0, 1] (upper bucket
// bound, clamped to the observed max), or 0 for an empty histogram.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q*float64(s.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum uint64
	for i := range s.buckets {
		cum += s.buckets[i]
		if cum >= target {
			ub := bucketMax(i)
			if ub > s.Max {
				ub = s.Max
			}
			return ub
		}
	}
	return s.Max
}

// HistView is the fixed percentile export of a histogram — the shape
// the metrics registry renders and Quantile lookups read.
type HistView struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
}

// View snapshots the histogram into its percentile export.
func (h *Histogram) View() HistView {
	s := h.Snapshot()
	return s.View()
}

// View computes the fixed percentile export from a snapshot.
func (s *HistSnapshot) View() HistView {
	return HistView{
		Count: s.Count, Sum: s.Sum, Max: s.Max,
		P50: s.Quantile(0.50), P90: s.Quantile(0.90),
		P99: s.Quantile(0.99), P999: s.Quantile(0.999),
	}
}

// QuantileOf returns the named percentile from a view (q in [0,1];
// snapped to the nearest exported percentile at or above q).
func (v *HistView) QuantileOf(q float64) uint64 {
	switch {
	case q <= 0.50:
		return v.P50
	case q <= 0.90:
		return v.P90
	case q <= 0.99:
		return v.P99
	case q <= 0.999:
		return v.P999
	default:
		return v.Max
	}
}
