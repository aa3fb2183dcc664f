package kbase

import "testing"

type fakeInode struct {
	ino  uint64
	size int64
}

func TestErrPtrRoundTrip(t *testing.T) {
	p := ErrPtr[fakeInode](EIO)
	if !IsErr(p) {
		t.Fatalf("IsErr(ErrPtr(EIO)) = false")
	}
}

func TestErrPtrSentinelsAreSingletonsPerErrno(t *testing.T) {
	a := ErrPtr[fakeInode](ENOENT)
	b := ErrPtr[fakeInode](ENOENT)
	if a != b {
		t.Fatalf("ErrPtr returned distinct sentinels for the same errno")
	}
	c := ErrPtr[fakeInode](EIO)
	if a == c {
		t.Fatalf("ErrPtr returned the same sentinel for distinct errnos")
	}
}

func TestErrPtrDistinctPerType(t *testing.T) {
	type other struct{ x int }
	a := ErrPtr[fakeInode](EIO)
	b := ErrPtr[other](EIO)
	if any(a) == any(b) {
		t.Fatalf("sentinels for different types compared equal")
	}
	if !IsErr(b) {
		t.Fatalf("per-type sentinel not recognized")
	}
}

func TestIsErrRejectsRealPointersAndNil(t *testing.T) {
	real := &fakeInode{ino: 7}
	if IsErr(real) {
		t.Fatalf("IsErr(real pointer) = true")
	}
	if IsErr[fakeInode](nil) {
		t.Fatalf("IsErr(nil) = true")
	}
}

func TestErrPtrEOKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("ErrPtr(EOK) did not panic")
		}
	}()
	ErrPtr[fakeInode](EOK)
}

// TestErrPtrSilentMisuse demonstrates the bug class the idiom invites:
// dereferencing an error sentinel yields a zeroed object, not a trap.
func TestErrPtrSilentMisuse(t *testing.T) {
	p := ErrPtr[fakeInode](EIO)
	if p.ino != 0 || p.size != 0 {
		t.Fatalf("sentinel pointee not zeroed: %+v", *p)
	}
}

func TestErrnoStrings(t *testing.T) {
	if EIO.Error() != "EIO" {
		t.Fatalf("EIO.Error() = %q", EIO.Error())
	}
	if Errno(9999).Error() != "errno(9999)" {
		t.Fatalf("unknown errno rendered %q", Errno(9999).Error())
	}
	if EOK.IsError() {
		t.Fatalf("EOK.IsError() = true")
	}
	if !ENOSPC.IsError() {
		t.Fatalf("ENOSPC.IsError() = false")
	}
}
