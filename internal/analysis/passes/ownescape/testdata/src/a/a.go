package a

import (
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/vfs"
)

// Raw shared structs crossing this package's exported API.

func Pin(bh *bufcache.BufferHead) { // want `exported func Pin of \*BufferHead shares safelinux/internal/linuxlike/bufcache's mutable struct`
	_ = bh.Dirty()
}

func Root() *vfs.Inode { // want `exported func result Root of \*Inode shares safelinux/internal/linuxlike/vfs's mutable struct`
	return nil
}

type Walker struct{}

func (w *Walker) Visit(ino *vfs.Inode) { // want `exported func Visit of \*Inode shares`
	_ = ino
}

// Unexported plumbing is the package's own business.

func pin(bh *bufcache.BufferHead) { _ = bh.Dirty() }

type cursor struct{}

func (c *cursor) visit(ino *vfs.Inode) { _ = ino }

// []byte parameters are borrows by convention, never flagged.
func Checksum(data []byte) byte {
	var s byte
	for _, b := range data {
		s ^= b
	}
	return s
}

// Alias returns of internal buffers.

type Frame struct {
	payload []byte
}

func (f *Frame) Payload() []byte {
	return f.payload // want `exported Payload returns an alias of the internal \[\]byte field payload`
}

func (f *Frame) Header() []byte {
	return f.payload[:4] // want `exported Header returns an alias of the internal \[\]byte field payload`
}

// Returning a fresh copy is the blessed shape.
func (f *Frame) Copy() []byte {
	out := make([]byte, len(f.payload))
	copy(out, f.payload)
	return out
}
