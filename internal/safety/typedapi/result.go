// Package typedapi implements Step 2 of the paper's roadmap: type
// safety at module boundaries. It provides the two interface repairs
// §4.2 calls for — a Result type that replaces casting error values
// to pointers, and generic typed tokens that replace void-pointer
// custom-data handoffs — plus a runtime type-confusion detector for
// instrumenting the legacy boundaries that have not been converted
// yet.
package typedapi

import (
	"fmt"

	"safelinux/internal/linuxlike/kbase"
)

// Result is a value-or-errno union, the typed replacement for the
// ERR_PTR idiom. The zero Result is an EOK Result holding T's zero
// value, which is deliberately useless: construct with Ok or Err.
type Result[T any] struct {
	value T
	err   kbase.Errno
}

// Ok wraps a successful value.
func Ok[T any](v T) Result[T] { return Result[T]{value: v} }

// Err wraps a failure. Err(EOK) is a caller bug and panics.
func Err[T any](e kbase.Errno) Result[T] {
	if e == kbase.EOK {
		panic("typedapi: Err(EOK)")
	}
	return Result[T]{err: e}
}

// IsOk reports success.
func (r Result[T]) IsOk() bool { return r.err == kbase.EOK }

// Get returns the value and errno; the value is meaningful only when
// the errno is EOK. This is the total accessor.
func (r Result[T]) Get() (T, kbase.Errno) { return r.value, r.err }

// String renders for diagnostics.
func (r Result[T]) String() string {
	if r.err != kbase.EOK {
		return fmt.Sprintf("Err(%v)", r.err)
	}
	return fmt.Sprintf("Ok(%v)", any(r.value))
}
