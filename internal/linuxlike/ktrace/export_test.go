package ktrace

// Has reports whether a bit is set.
func (b *CoverBitmap) Has(idx uint32) bool {
	idx %= CoverBits
	return b[idx/64]&(1<<(idx%64)) != 0
}

// DisableCoverage stops collection; the bitmap keeps its bits.
func DisableCoverage() { coverOn.Store(false) }

// ID returns the tracepoint's stable numeric id (the value an
// attached program reads at context offset 0).
func (tp *Tracepoint) ID() uint32 { return tp.id }

// ID returns the op's stable numeric id.
func (op *Op) ID() uint32 { return op.id }

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

// SpansSlowCount returns how many times the slow-op watchdog fired.
func SpansSlowCount() uint64 { return spansSlow.Load() }

// Active reports whether this timer is actually recording (false for
// the zero timer handed out when the plane is off or sampled out).
func (t OpTimer) Active() bool { return t.flags != 0 }

// TraceID returns the trace this timer belongs to (0 when spans are
// off or the timer is inactive).
func (t OpTimer) TraceID() uint64 { return t.trace }
