// Package ramfs is the simplest file system of the simulated kernel:
// all state in memory, no backing device. Per-inode state hangs off
// the inode's private slot via the vfs.SetPrivate/PrivateAs accessors,
// and WriteBegin hands WriteEnd a private token through the VFS in a
// WriteState envelope — the paper's §4.2 protocol, with the downcasts
// confined to audited accessors instead of sprinkled at every site.
//
// ramfs serves three roles: the baseline file system for VFS tests,
// the lower layer for overlaylike, and the victim of the fault
// campaigns' type-confusion plant (a stacked FileOps whose WriteBegin
// hands ramfs a foreign WriteState).
package ramfs

import (
	"sync"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/typedapi"
)

// node is ramfs's per-inode private state.
type node struct {
	mu       sync.Mutex
	data     []byte
	children map[string]*vfs.Inode // directories only
}

// FS is the ramfs file system type.
type FS struct{}

// Name implements vfs.FileSystemType.
func (f *FS) Name() string { return "ramfs" }

// fsInstance is one mounted ramfs.
type fsInstance struct {
	sb      *vfs.SuperBlock
	mu      sync.Mutex
	nextIno uint64
	inodes  uint64
}

// Mount implements vfs.FileSystemType. data is unused.
func (f *FS) Mount(task *kbase.Task, data vfs.MountData) (*vfs.SuperBlock, kbase.Errno) {
	inst := &fsInstance{nextIno: 2} // ino 1 is the root
	sb := &vfs.SuperBlock{FSType: f.Name()}
	inst.sb = sb
	vfs.SetSBPrivate(sb, inst)
	sb.Ops = inst
	root := inst.newInode(1, vfs.ModeDir)
	sb.Root = root
	return sb, kbase.EOK
}

func (inst *fsInstance) newInode(ino uint64, mode vfs.FileMode) *vfs.Inode {
	n := &node{}
	if mode.IsDir() {
		n.children = make(map[string]*vfs.Inode)
	}
	i := &vfs.Inode{
		Ino:   ino,
		Mode:  mode,
		Nlink: 1,
		ILock: kbase.NewSpinLock(vfs.ILockClass),
		Sb:    inst.sb,
	}
	vfs.SetPrivate(i, n)
	ops := &inodeOps{inst: inst}
	i.Ops = ops
	i.FileOps = &fileOps{inst: inst}
	inst.mu.Lock()
	inst.inodes++
	inst.mu.Unlock()
	return i
}

func (inst *fsInstance) allocIno() uint64 {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	ino := inst.nextIno
	inst.nextIno++
	return ino
}

// nodeOf downcasts the inode's private state through the vfs
// accessor. A wrong dynamic type means another component stomped on
// the slot; that is a type-confusion oops, after which the operation
// fails.
func nodeOf(ino *vfs.Inode) (*node, kbase.Errno) {
	n, ok := vfs.PrivateAs[*node](ino)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "ramfs",
			"inode %d private is not *node", ino.Ino)
		return nil, kbase.EUCLEAN
	}
	return n, kbase.EOK
}

// inodeOps implements vfs.TypedInodeOps.
type inodeOps struct {
	inst *fsInstance
}

func (o *inodeOps) LookupTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	n, err := nodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	child, ok := n.children[name]
	if !ok {
		return typedapi.Err[*vfs.Inode](kbase.ENOENT)
	}
	return typedapi.Ok(child)
}

func (o *inodeOps) CreateTyped(task *kbase.Task, dir *vfs.Inode, name string, mode vfs.FileMode) typedapi.Result[*vfs.Inode] {
	if len(name) == 0 || len(name) > vfs.MaxNameLen {
		return typedapi.Err[*vfs.Inode](kbase.EINVAL)
	}
	n, err := nodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.children[name]; exists {
		return typedapi.Err[*vfs.Inode](kbase.EEXIST)
	}
	child := o.inst.newInode(o.inst.allocIno(), mode)
	n.children[name] = child
	return typedapi.Ok(child)
}

func (o *inodeOps) MkdirTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	return o.CreateTyped(task, dir, name, vfs.ModeDir)
}

func (o *inodeOps) Unlink(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	n, err := nodeOf(dir)
	if err != kbase.EOK {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	child, ok := n.children[name]
	if !ok {
		return kbase.ENOENT
	}
	if child.Mode.IsDir() {
		return kbase.EISDIR
	}
	delete(n.children, name)
	child.ILock.Lock(task)
	child.Nlink--
	child.ILock.Unlock(task)
	return kbase.EOK
}

func (o *inodeOps) Rmdir(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	n, err := nodeOf(dir)
	if err != kbase.EOK {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	child, ok := n.children[name]
	if !ok {
		return kbase.ENOENT
	}
	if !child.Mode.IsDir() {
		return kbase.ENOTDIR
	}
	cn, err := nodeOf(child)
	if err != kbase.EOK {
		return err
	}
	cn.mu.Lock()
	empty := len(cn.children) == 0
	cn.mu.Unlock()
	if !empty {
		return kbase.ENOTEMPTY
	}
	delete(n.children, name)
	return kbase.EOK
}

func (o *inodeOps) Rename(task *kbase.Task, oldDir *vfs.Inode, oldName string, newDir *vfs.Inode, newName string) kbase.Errno {
	if len(newName) == 0 || len(newName) > vfs.MaxNameLen {
		return kbase.EINVAL
	}
	on, err := nodeOf(oldDir)
	if err != kbase.EOK {
		return err
	}
	nn, err := nodeOf(newDir)
	if err != kbase.EOK {
		return err
	}
	// Lock both directory nodes in address order to avoid ABBA;
	// same-node rename locks once.
	first, second := on, nn
	if first == second {
		second = nil
	}
	first.mu.Lock()
	if second != nil {
		second.mu.Lock()
	}
	defer func() {
		if second != nil {
			second.mu.Unlock()
		}
		first.mu.Unlock()
	}()
	child, ok := on.children[oldName]
	if !ok {
		return kbase.ENOENT
	}
	if existing, ok := nn.children[newName]; ok {
		if existing.Mode.IsDir() {
			return kbase.EISDIR
		}
	}
	delete(on.children, oldName)
	nn.children[newName] = child
	return kbase.EOK
}

func (o *inodeOps) ReadDir(task *kbase.Task, dir *vfs.Inode) ([]vfs.DirEntry, kbase.Errno) {
	n, err := nodeOf(dir)
	if err != kbase.EOK {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]vfs.DirEntry, 0, len(n.children))
	for name, child := range n.children {
		out = append(out, vfs.DirEntry{Name: name, Ino: child.Ino, Mode: child.Mode})
	}
	return out, kbase.EOK
}

// writeToken is what WriteBegin hands to WriteEnd through the VFS,
// inside the WriteState envelope — the custom-data protocol of §4.2.
type writeToken struct {
	node    *node
	reserve int
}

// fileOps implements vfs.FileOps.
type fileOps struct {
	inst *fsInstance
}

func (fo *fileOps) Read(task *kbase.Task, ino *vfs.Inode, buf []byte, off int64) (int, kbase.Errno) {
	n, err := nodeOf(ino)
	if err != kbase.EOK {
		return 0, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if off >= int64(len(n.data)) {
		return 0, kbase.EOK
	}
	cnt := copy(buf, n.data[off:])
	return cnt, kbase.EOK
}

func (fo *fileOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, cnt int) (vfs.WriteState, kbase.Errno) {
	n, err := nodeOf(ino)
	if err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	return vfs.NewWriteState(&writeToken{node: n, reserve: cnt}), kbase.EOK
}

func (fo *fileOps) WriteCopy(task *kbase.Task, ino *vfs.Inode, off int64, data []byte, private vfs.WriteState) (int, kbase.Errno) {
	tok, ok := vfs.WriteStateAs[*writeToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "ramfs",
			"write_copy private is not *writeToken")
		return 0, kbase.EUCLEAN
	}
	n := tok.node
	n.mu.Lock()
	defer n.mu.Unlock()
	end := off + int64(len(data))
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:end], data)
	return len(data), kbase.EOK
}

func (fo *fileOps) WriteEnd(task *kbase.Task, ino *vfs.Inode, off int64, cnt int, private vfs.WriteState) kbase.Errno {
	tok, ok := vfs.WriteStateAs[*writeToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "ramfs",
			"write_end private is not *writeToken")
		return kbase.EUCLEAN
	}
	n := tok.node
	n.mu.Lock()
	size := int64(len(n.data))
	n.mu.Unlock()
	ino.SizeWrite(task, size)
	return kbase.EOK
}

func (fo *fileOps) Truncate(task *kbase.Task, ino *vfs.Inode, size int64) kbase.Errno {
	n, err := nodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	n.mu.Lock()
	switch {
	case size < int64(len(n.data)):
		n.data = n.data[:size]
	case size > int64(len(n.data)):
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	n.mu.Unlock()
	ino.SizeWrite(task, size)
	return kbase.EOK
}

func (fo *fileOps) Fsync(task *kbase.Task, ino *vfs.Inode) kbase.Errno {
	return kbase.EOK // nothing to do: RAM only
}

// SuperBlockOps.

func (inst *fsInstance) Statfs(task *kbase.Task) (vfs.StatFS, kbase.Errno) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return vfs.StatFS{
		TotalInodes: inst.inodes,
		FSName:      "ramfs",
	}, kbase.EOK
}

func (inst *fsInstance) SyncFS(task *kbase.Task) kbase.Errno { return kbase.EOK }

func (inst *fsInstance) Unmount(task *kbase.Task) kbase.Errno { return kbase.EOK }
