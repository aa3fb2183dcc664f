package a

import "safelinux/internal/linuxlike/kbase"

type thing struct{ v int }

func newThing(err kbase.Errno) *thing {
	if err != kbase.EOK {
		return kbase.ErrPtr[thing](err) // want `kbase\.ErrPtr encodes an error inside a pointer`
	}
	return &thing{v: 1}
}

func consume(p *thing) kbase.Errno {
	if kbase.IsErr(p) { // want `kbase\.IsErr encodes an error inside a pointer`
		return kbase.EINVAL
	}
	return kbase.EOK
}

// Plain pointer tests are fine — only the ERR_PTR helpers are the hazard.
func plain(p *thing) bool { return p != nil }

// A reasoned directive suppresses its own line and the next one, but
// not the rest of the function.
func suppressed(p *thing) kbase.Errno {
	//kerncheck:ignore errptr pinned legacy shim exercised by this test
	if kbase.IsErr(p) {
		return consume(kbase.ErrPtr[thing](kbase.EIO)) // want `kbase\.ErrPtr encodes an error inside a pointer`
	}
	return kbase.EOK
}

// A directive without a reason is void: the finding stands.
func bareDirectiveIsVoid(p *thing) bool {
	//kerncheck:ignore errptr
	return kbase.IsErr(p) // want `kbase\.IsErr encodes an error inside a pointer`
}
