package ktrace

import (
	"fmt"
	"strings"
	"time"

	"safelinux/internal/linuxlike/kbase"
)

// Lockstat surfacing. The accounting lives in kbase next to the lock
// primitives (it must — ktrace sits above kbase in the import graph);
// ktrace renders it and feeds it into the metrics plane, so `ktrace
// lockstat` and the exporters are the one place contention becomes
// visible.

// EnableLockStat turns on per-LockClass accounting kernel-wide and
// returns the previous setting.
func EnableLockStat() bool { return kbase.SetLockStat(true) }

// RenderLockStat renders the lockstat table, lockstat(8)-style: one
// row per lock class that saw traffic, sorted by name, with
// contention counts, wait/hold-time totals and maxima, and hold-time
// p50/p99 from the per-class log2 histograms.
func RenderLockStat() string {
	stats := kbase.LockStats()
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %10s %10s %12s %10s %12s %10s %10s %10s\n",
		"class", "acquisitions", "reads", "contended", "wait-total", "wait-max", "hold-total", "hold-max", "hold-p50", "hold-p99")
	for _, s := range stats {
		hv := log2View(s.HoldHist, s.HoldNs, s.MaxHoldNs)
		fmt.Fprintf(&b, "%-24s %12d %10d %10d %12s %10s %12s %10s %10s %10s\n",
			s.Class, s.Acquisitions, s.ReadAcquires, s.Contended,
			fmtNs(s.WaitNs), fmtNs(s.MaxWaitNs), fmtNs(s.HoldNs), fmtNs(s.MaxHoldNs),
			fmtNs(hv.P50), fmtNs(hv.P99))
	}
	if len(stats) == 0 {
		b.WriteString("(no lock traffic recorded — is lockstat enabled?)\n")
	}
	return b.String()
}

// log2View converts a kbase log2 bucket array into the standard
// percentile export. Bucket i holds samples in [2^(i-1), 2^i), so a
// quantile reports the bucket's upper bound (2^i - 1), clamped to the
// observed max — coarse (one-octave resolution) but honest about it.
func log2View(buckets [kbase.LockHistBuckets]uint64, sumNs, maxNs uint64) HistView {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	v := HistView{Count: total, Sum: sumNs, Max: maxNs}
	if total == 0 {
		return v
	}
	q := func(p float64) uint64 {
		target := uint64(p*float64(total) + 0.5)
		if target < 1 {
			target = 1
		}
		var cum uint64
		for i, c := range buckets {
			cum += c
			if cum >= target {
				var ub uint64
				if i > 0 {
					ub = 1<<uint(i) - 1
				}
				if ub > maxNs {
					ub = maxNs
				}
				return ub
			}
		}
		return maxNs
	}
	v.P50, v.P90, v.P99, v.P999 = q(0.50), q(0.90), q(0.99), q(0.999)
	return v
}

func fmtNs(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	}
}

// RegisterLockStat registers the lockstat table under the "lockstat"
// subsystem: per class, counters <class>.acquisitions, .reads,
// .contended, .wait_ns, .hold_ns, plus histogram metrics <class>.wait
// and <class>.hold carrying p50/p90/p99/p999 from the per-class log2
// distributions (maxima stopped being the only tail signal in v2).
func RegisterLockStat(m *Metrics) {
	m.Register("lockstat", func(emit func(string, uint64)) {
		for _, s := range kbase.LockStats() {
			emit(s.Class+".acquisitions", s.Acquisitions)
			if s.ReadAcquires > 0 {
				emit(s.Class+".reads", s.ReadAcquires)
			}
			emit(s.Class+".contended", s.Contended)
			emit(s.Class+".wait_ns", s.WaitNs)
			emit(s.Class+".hold_ns", s.HoldNs)
		}
	})
	m.RegisterHistSource("lockstat", func(emit func(string, HistView)) {
		for _, s := range kbase.LockStats() {
			if s.Contended > 0 {
				emit(s.Class+".wait", log2View(s.WaitHist, s.WaitNs, s.MaxWaitNs))
			}
			emit(s.Class+".hold", log2View(s.HoldHist, s.HoldNs, s.MaxHoldNs))
		}
	})
}
