package net

import "safelinux/internal/linuxlike/ktrace"

// tpWheelCascade fires per non-empty timer-wheel cascade on the legacy
// stack's wheel (a0=level, a1=timers moved).
var tpWheelCascade = ktrace.New("net:wheel_cascade")

// Histograms for the data-plane mechanisms this package owns. They
// record structural costs (counts, not nanoseconds), so they are not
// gated on the latency plane: a cascade happens at most once per 64
// jiffies per level, nowhere near the per-packet path.
//
// wheelCascadeHist: timers moved per non-empty timer-wheel cascade
// (legacy stack's wheel).
var wheelCascadeHist = ktrace.NewHistogram()

// RegisterNetMetrics registers the net data-plane histograms with a
// metrics registry (wired from kernel.RegisterMetrics).
func RegisterNetMetrics(m *ktrace.Metrics) error {
	return m.RegisterHistogram("net", "wheel_cascade_moved", wheelCascadeHist)
}
