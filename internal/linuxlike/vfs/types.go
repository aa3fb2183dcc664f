// Package vfs implements the virtual file system layer of the
// simulated kernel in the legacy Linux style: a shared mutable Inode
// structure passed by pointer between the VFS and file systems, a
// write_begin/write_end protocol that hands file-system-private state
// between calls, and an i_size field whose locking contract is "maybe
// i_lock" (paper §4.3). The ERR_PTR-returning operation table and the
// bare-any private fields are gone: every file system implements
// TypedInodeOps (errors travel in typedapi.Result, never inside
// pointers) and per-inode state crosses the boundary through the
// typed accessors in typed.go.
//
// The safety framework's Step-1 work (internal/safety/module) wraps
// this layer in a modular interface; Steps 2-4 replace individual
// file systems behind it.
package vfs

import (
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
)

// FileMode classifies an inode.
type FileMode uint16

// Inode kinds.
const (
	ModeRegular FileMode = 1 << iota
	ModeDir
	ModeSymlink
)

// IsDir reports whether the mode is a directory.
func (m FileMode) IsDir() bool { return m&ModeDir != 0 }

// IsRegular reports whether the mode is a regular file.
func (m FileMode) IsRegular() bool { return m&ModeRegular != 0 }

// MaxNameLen bounds one path component, as NAME_MAX does.
const MaxNameLen = 255

// ILockClass is the lock class shared by every inode's i_lock.
var ILockClass = kbase.NewLockClass("inode.i_lock")

// Inode is the kernel's generic in-memory inode. It is shared
// mutably between the VFS and the owning file system, with the
// paper's §4.3 pathology preserved verbatim: ISize is documented as
// "maybe protected" by ILock — some VFS paths take the lock before
// calling into the file system, others do not, and the file system
// updates ISize itself on write paths.
type Inode struct {
	Ino   uint64
	Mode  FileMode
	Nlink uint32

	// ILock is i_lock. Three fields are "explicitly protected" by it
	// (Nlink, Ctime, Mtime) — but ISize is only maybe protected,
	// according to the relevant comment.
	ILock *kbase.SpinLock

	// ISize is the file size in bytes. Maybe protected by ILock.
	ISize int64

	Ctime uint64 // inode change time, jiffies
	Mtime uint64 // data modification time, jiffies

	Sb *SuperBlock

	// Ops is the file system's inode operation table.
	Ops TypedInodeOps

	// FileOps is the file system's file operation table.
	FileOps FileOps

	// private is the i_private analogue. It stays dynamically typed
	// underneath — that is the legacy design being modeled — but the
	// field is unexported, so every crossing of the boundary goes
	// through SetPrivate/PrivateAs where the one audited downcast
	// lives.
	private any

	// opens counts live descriptors referencing this inode. The VFS
	// maintains it on open/close/remap; file systems read it
	// (OpenCount) when the last link goes away to decide whether
	// storage reclaim must be deferred to the last close — the POSIX
	// orphan-file contract.
	opens atomic.Int32
}

// OpenCount returns the number of open descriptors on the inode.
func (i *Inode) OpenCount() int { return int(i.opens.Load()) }

func (i *Inode) openRef()         { i.opens.Add(1) }
func (i *Inode) openUnref() int32 { return i.opens.Add(-1) }

// SizeRead returns ISize under ILock — the disciplined accessor that
// only some call paths use.
func (i *Inode) SizeRead(task *kbase.Task) int64 {
	i.ILock.Lock(task)
	defer i.ILock.Unlock(task)
	return i.ISize
}

// SizeWrite updates ISize under ILock.
func (i *Inode) SizeWrite(task *kbase.Task, size int64) {
	i.ILock.Lock(task)
	i.ISize = size
	i.ILock.Unlock(task)
}

// DirEntry is one directory entry as returned by ReadDir.
type DirEntry struct {
	Name string
	Ino  uint64
	Mode FileMode
}

// WriteState carries a file system's private write-protocol state
// from WriteBegin through WriteCopy to WriteEnd. The VFS still only
// ferries it — the paper's §4.2 example — but the payload rides in an
// opaque envelope instead of a bare any, so the downcast happens in
// exactly one audited accessor (WriteStateAs) and the type-confusion
// detector can keep watching the inner dynamic type.
type WriteState struct {
	v any
}

// NewWriteState wraps a file system's private write state.
func NewWriteState[T any](v T) WriteState { return WriteState{v: v} }

// WriteStateAs unwraps the state as the owning file system's type.
func WriteStateAs[T any](s WriteState) (T, bool) {
	v, ok := s.v.(T)
	return v, ok
}

// FileOps is the file_operations table. The WriteBegin/WriteEnd pair
// reproduces the paper's §4.2 example: the file system passes custom
// state from WriteBegin to WriteEnd in a WriteState envelope that the
// VFS merely ferries — and the owner must unwrap, trusting it was
// theirs.
type FileOps interface {
	// Read copies up to len(buf) bytes from offset off.
	Read(task *kbase.Task, ino *Inode, buf []byte, off int64) (int, kbase.Errno)
	// WriteBegin prepares a write of n bytes at off, returning
	// file-system-private state that the VFS passes to WriteEnd.
	WriteBegin(task *kbase.Task, ino *Inode, off int64, n int) (WriteState, kbase.Errno)
	// WriteCopy transfers the payload for a prepared write and returns
	// the bytes it moved. A copy that fails having moved nothing ends
	// the write itself; one that moved n > 0 bytes before failing
	// leaves the write open, and the caller ends it with WriteEnd(n).
	WriteCopy(task *kbase.Task, ino *Inode, off int64, data []byte, private WriteState) (int, kbase.Errno)
	// WriteEnd completes the write started by WriteBegin; n is the
	// byte count WriteCopy returned, short after a failed copy.
	WriteEnd(task *kbase.Task, ino *Inode, off int64, n int, private WriteState) kbase.Errno
	// Fsync makes the file's data and metadata durable.
	Fsync(task *kbase.Task, ino *Inode) kbase.Errno
	// Truncate sets the file size.
	Truncate(task *kbase.Task, ino *Inode, size int64) kbase.Errno
}

// ReleaseOps is an optional FileOps extension. The VFS calls Release
// when the last descriptor on an inode is closed, giving the file
// system its one chance to reclaim storage it kept alive for an
// open-but-unlinked file (POSIX: unlink of an open file defers data
// destruction to the final close). File systems without deferred
// state simply don't implement it.
type ReleaseOps interface {
	Release(task *kbase.Task, ino *Inode)
}

// SuperBlockOps is the super_operations table.
type SuperBlockOps interface {
	// Statfs reports usage.
	Statfs(task *kbase.Task) (StatFS, kbase.Errno)
	// SyncFS flushes everything to stable storage.
	SyncFS(task *kbase.Task) kbase.Errno
	// Unmount releases the file system instance.
	Unmount(task *kbase.Task) kbase.Errno
}

// StatFS is file-system-level usage information.
type StatFS struct {
	TotalBlocks uint64
	FreeBlocks  uint64
	TotalInodes uint64
	FreeInodes  uint64
	FSName      string
}

// SuperBlock is one mounted file system instance.
type SuperBlock struct {
	FSType string
	Root   *Inode
	Ops    SuperBlockOps
	// private is the s_fs_info analogue; SetSBPrivate/SBPrivateAs are
	// the audited crossings.
	private any
}

// MountData is the envelope for mount options and backing devices —
// the void*-ish data argument of mount(2), wrapped so the downcast
// happens in the owning file system's MountDataAs call rather than at
// every signature.
type MountData struct {
	v any
}

// NewMountData wraps fs-specific mount data.
func NewMountData[T any](v T) MountData { return MountData{v: v} }

// MountDataAs unwraps mount data as the file system's own type.
func MountDataAs[T any](d MountData) (T, bool) {
	v, ok := d.v.(T)
	return v, ok
}

// FileSystemType registers a mountable file system implementation.
type FileSystemType interface {
	// Name is the fs type name ("ramfs", "extlike", ...).
	Name() string
	// Mount creates a superblock instance; data carries mount options
	// and backing devices in a MountData envelope.
	Mount(task *kbase.Task, data MountData) (*SuperBlock, kbase.Errno)
}

// Stat is per-inode metadata returned by the VFS.
type Stat struct {
	Ino   uint64
	Mode  FileMode
	Size  int64
	Nlink uint32
	Ctime uint64
	Mtime uint64
}
