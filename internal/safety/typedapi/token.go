package typedapi

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"safelinux/internal/linuxlike/kbase"
)

// Token is the typed replacement for the void*-custom-data handoff of
// §4.2 (write_begin passing state to write_end). A Token[T] can only
// ever yield a T; the protocol that used to rely on "the pointer was
// from my write_begin, trust me" now relies on the type system, plus
// a provenance tag checked at redemption time so that tokens cannot
// cross between issuing components.
type Token[T any] struct {
	value  T
	issuer string
	live   bool
}

// Issue creates a token bound to an issuer ("extlike.write", ...).
func Issue[T any](issuer string, v T) *Token[T] {
	return &Token[T]{value: v, issuer: issuer, live: true}
}

// Redeem yields the payload if the token was issued by issuer and has
// not been redeemed before. A wrong issuer is the cross-component
// confusion the void* protocol permits silently; here it is EACCES.
func (t *Token[T]) Redeem(issuer string) (T, kbase.Errno) {
	var zero T
	if t == nil || !t.live {
		return zero, kbase.ESTALE
	}
	if t.issuer != issuer {
		return zero, kbase.EACCES
	}
	t.live = false
	return t.value, kbase.EOK
}

// Peek yields the payload without consuming the token (for
// mid-protocol steps like write_copy between begin and end).
func (t *Token[T]) Peek(issuer string) (T, kbase.Errno) {
	var zero T
	if t == nil || !t.live {
		return zero, kbase.ESTALE
	}
	if t.issuer != issuer {
		return zero, kbase.EACCES
	}
	return t.value, kbase.EOK
}

// --- Type-confusion detector for legacy boundaries ---

// Detector instruments legacy any-typed boundaries: each boundary
// declares the dynamic type it expects, and every crossing is
// checked. This is the "practical type confusion detection" research
// direction §4.2 names (TypeSan for the kernel), implemented for the
// simulated kernel.
//
// With LearnMode set, a boundary with no declared expectation adopts
// the dynamic type of its first crossing — profile a known-good
// workload once, then enforce. This is how the detector instruments
// interfaces (like the VFS write protocol) whose carried type is
// file-system-specific and unknown to the instrumentation site.
type Detector struct {
	// LearnMode adopts first-seen types for undeclared boundaries.
	LearnMode bool

	mu         sync.Mutex
	expected   map[string]reflect.Type
	crossings  map[string]uint64
	confusions map[string]uint64
	report     []string
}

// NewDetector creates an empty detector.
//
//kerncheck:ignore deadexport paper artifact: the boundary type-confusion detector, demonstrated by typedapi and vfs tests
func NewDetector() *Detector {
	return &Detector{
		expected:   make(map[string]reflect.Type),
		crossings:  make(map[string]uint64),
		confusions: make(map[string]uint64),
	}
}

// Check validates one crossing and reports whether it is well-typed.
// Mismatches raise a type-confusion oops attributed to the boundary.
//
//kerncheck:ignore anyboundary the detector inspects untyped crossings by design; any is its subject, not its interface style
func (d *Detector) Check(boundary string, v any) bool {
	d.mu.Lock()
	d.crossings[boundary]++
	want, declared := d.expected[boundary]
	got := reflect.TypeOf(v)
	if !declared && d.LearnMode {
		d.expected[boundary] = got
		want, declared = got, true
	}
	ok := !declared || got == want
	if !ok {
		d.confusions[boundary]++
		d.report = append(d.report, fmt.Sprintf(
			"boundary %q: expected %v, got %v", boundary, want, got))
	}
	d.mu.Unlock()
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "typedapi",
			"boundary %q carried %T", boundary, v)
	}
	return ok
}

// BoundaryStats summarizes one boundary.
type BoundaryStats struct {
	Boundary   string
	Crossings  uint64
	Confusions uint64
}

// Stats returns per-boundary counts, sorted by boundary name.
//
//kerncheck:ignore deadexport paper artifact: the boundary type-confusion detector, demonstrated by typedapi and vfs tests
func (d *Detector) Stats() []BoundaryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]BoundaryStats, 0, len(d.crossings))
	for b, n := range d.crossings {
		out = append(out, BoundaryStats{Boundary: b, Crossings: n, Confusions: d.confusions[b]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Boundary < out[j].Boundary })
	return out
}
