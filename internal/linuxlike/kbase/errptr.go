package kbase

import (
	"reflect"
	"sync"
)

// The ERR_PTR idiom.
//
// Linux functions that return a pointer on success frequently encode a
// failure by casting a negative errno into the pointer value; callers
// must remember to test IS_ERR before dereferencing. The paper (§4.2)
// singles this pattern out as a source of type-confusion bugs. We
// reproduce the idiom faithfully enough to exhibit the bug class: an
// error "pointer" is a real, dereferenceable *T whose pointee is a
// zeroed sentinel object, so forgetting the IS_ERR check does not trap
// — it silently yields garbage state, exactly like the kernel bug.

type errPtrKey struct {
	typ reflect.Type
	err Errno
}

var (
	errPtrMu      sync.RWMutex
	errPtrByKey   = make(map[errPtrKey]any) // -> *T sentinel
	errPtrReverse = make(map[any]Errno)     // *T sentinel -> errno
)

// ErrPtr returns the sentinel *T encoding err, mimicking ERR_PTR().
// Calling it with EOK is a caller bug and panics (Linux would hand
// back a NULL-adjacent pointer; we make the misuse loud).
func ErrPtr[T any](err Errno) *T {
	if err == EOK {
		panic("kbase: ErrPtr(EOK)")
	}
	key := errPtrKey{typ: reflect.TypeOf((*T)(nil)), err: err}
	errPtrMu.RLock()
	p, ok := errPtrByKey[key]
	errPtrMu.RUnlock()
	if ok {
		return p.(*T)
	}
	errPtrMu.Lock()
	defer errPtrMu.Unlock()
	if p, ok := errPtrByKey[key]; ok {
		return p.(*T)
	}
	sentinel := new(T)
	errPtrByKey[key] = sentinel
	errPtrReverse[sentinel] = err
	return sentinel
}

// IsErr reports whether p is an error-encoding sentinel, mimicking
// IS_ERR(). A nil pointer is not an error sentinel (as in Linux).
func IsErr[T any](p *T) bool {
	if p == nil {
		return false
	}
	errPtrMu.RLock()
	_, ok := errPtrReverse[any(p)]
	errPtrMu.RUnlock()
	return ok
}
