package spec

import (
	"bytes"
	"fmt"
	"sync"

	"safelinux/internal/linuxlike/kbase"
)

// Axiomatic models of unverified components (§4.4: "the boundary must
// provide assumptions (axioms) about the behavior of the unverified
// module ... in the case of block I/O, buffer_head may be abstracted
// away, and the axioms can be defined in terms of bytes").
//
// An AxiomaticDisk is the shim layer between a verified module and
// the unverified block device: it forwards every call and checks the
// responses against the minimal byte-level axioms. If the device (or
// the model) misbehaves, the violation is pinned to this boundary —
// "the verified file system will appear buggy if either the block
// I/O layer is buggy or the model erroneous".

// DiskLike is the unverified block component's interface, defined in
// terms the axioms can describe: numbered blocks of bytes.
type DiskLike interface {
	BlockSize() int
	Blocks() uint64
	Read(block uint64, buf []byte) kbase.Errno
	Write(block uint64, data []byte) kbase.Errno
	Flush() kbase.Errno
}

// AxiomViolation is one detected breach of the block-I/O axioms.
type AxiomViolation struct {
	Axiom  string
	Block  uint64
	Detail string
}

func (a AxiomViolation) String() string {
	return fmt.Sprintf("axiom %q violated at block %d: %s", a.Axiom, a.Block, a.Detail)
}

// AxiomaticDisk wraps a DiskLike with the byte-level axioms:
//
//	A1 read-after-write: a read returns the most recently written
//	    bytes for that block (or zeros if never written);
//	A2 frame: writing block i changes no other block (checked lazily
//	    through A1 on subsequent reads);
//	A3 bounds: in-range, full-block operations succeed or fail
//	    without changing the model.
type AxiomaticDisk struct {
	inner DiskLike

	mu         sync.Mutex
	model      map[uint64][]byte
	violations []AxiomViolation
}

// NewAxiomaticDisk wraps inner.
//
//kerncheck:ignore deadexport paper artifact: the §4.4 axiomatic disk shim, demonstrated by the spec and safefs tests
func NewAxiomaticDisk(inner DiskLike) *AxiomaticDisk {
	return &AxiomaticDisk{inner: inner, model: make(map[uint64][]byte)}
}

// Violations returns all detected axiom breaches.
//
//kerncheck:ignore deadexport the axiomatic disk's audit readout, asserted by the spec and safefs tests
func (d *AxiomaticDisk) Violations() []AxiomViolation {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]AxiomViolation, len(d.violations))
	copy(out, d.violations)
	return out
}

// BlockSize forwards.
func (d *AxiomaticDisk) BlockSize() int { return d.inner.BlockSize() }

// Blocks forwards.
func (d *AxiomaticDisk) Blocks() uint64 { return d.inner.Blocks() }

// Read forwards and checks axiom A1.
func (d *AxiomaticDisk) Read(block uint64, buf []byte) kbase.Errno {
	err := d.inner.Read(block, buf)
	if err != kbase.EOK {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	want, tracked := d.model[block]
	if tracked && !bytes.Equal(want, buf) {
		d.violations = append(d.violations, AxiomViolation{
			Axiom: "read-after-write", Block: block,
			Detail: "device returned bytes differing from the last acknowledged write",
		})
	}
	return kbase.EOK
}

// Write forwards and updates the model on success.
func (d *AxiomaticDisk) Write(block uint64, data []byte) kbase.Errno {
	err := d.inner.Write(block, data)
	if err != kbase.EOK {
		return err
	}
	d.mu.Lock()
	cp := make([]byte, len(data))
	copy(cp, data)
	d.model[block] = cp
	d.mu.Unlock()
	return kbase.EOK
}

// Flush forwards.
func (d *AxiomaticDisk) Flush() kbase.Errno { return d.inner.Flush() }
