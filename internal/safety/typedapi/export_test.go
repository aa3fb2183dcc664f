package typedapi

import (
	"fmt"
	"reflect"

	"safelinux/internal/linuxlike/kbase"
)

// Errno returns the failure code (EOK on success).
func (r Result[T]) Errno() kbase.Errno { return r.err }

// MustGet returns the value, panicking on error — for call sites that
// have already checked IsOk. Unlike dereferencing an ERR_PTR, misuse
// is loud, immediate, and attributed.
func (r Result[T]) MustGet() T {
	if r.err != kbase.EOK {
		panic(fmt.Sprintf("typedapi: MustGet on Err(%v)", r.err))
	}
	return r.value
}

// OrElse returns the value, or fallback on error.
func (r Result[T]) OrElse(fallback T) T {
	if r.err != kbase.EOK {
		return fallback
	}
	return r.value
}

// Then chains a computation over a successful Result.
func Then[T, U any](r Result[T], f func(T) Result[U]) Result[U] {
	if r.err != kbase.EOK {
		return Result[U]{err: r.err}
	}
	return f(r.value)
}

// MapResult transforms the value of a successful Result.
func MapResult[T, U any](r Result[T], f func(T) U) Result[U] {
	if r.err != kbase.EOK {
		return Result[U]{err: r.err}
	}
	return Ok(f(r.value))
}

// Live reports whether the token is still redeemable.
func (t *Token[T]) Live() bool { return t != nil && t.live }

// Expect declares the dynamic type boundary must carry, from a sample
// value (typically a zero value of the right type).
func (d *Detector) Expect(boundary string, sample any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expected[boundary] = reflect.TypeOf(sample)
}

// Report returns the accumulated confusion descriptions.
func (d *Detector) Report() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.report))
	copy(out, d.report)
	return out
}
