// Package overlaylike implements an overlayfs-style union file
// system over two already-mounted file systems: a writable upper
// layer and a read-only lower layer. Reads prefer the upper layer;
// writes to lower-only files trigger copy-up; deletions of lower
// entries are recorded as whiteout markers in the upper layer
// (".wh.<name>" files, as original overlayfs did).
//
// Directory renames return EXDEV, as mainline overlayfs does without
// redirect_dir. The implementation uses the typed inode operation
// table: layer calls return typedapi.Result, per-inode state crosses
// through the vfs private accessors, and the write protocol rides in
// WriteState envelopes.
package overlaylike

import (
	"strings"
	"sync"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/typedapi"
)

// WhiteoutPrefix marks deleted lower entries in the upper layer.
const WhiteoutPrefix = ".wh."

// FS is the overlaylike file system type.
type FS struct{}

// Name implements vfs.FileSystemType.
func (f *FS) Name() string { return "overlaylike" }

// MountData carries the two layers.
type MountData struct {
	Upper *vfs.SuperBlock
	Lower *vfs.SuperBlock
}

// ovlNode is the overlay's per-inode private state.
type ovlNode struct {
	parent *vfs.Inode // overlay inode of parent dir (nil for root)
	name   string     // name within parent
	upper  *vfs.Inode // layer inode, may be nil
	lower  *vfs.Inode // layer inode, may be nil
}

type fsInstance struct {
	upperSB *vfs.SuperBlock
	lowerSB *vfs.SuperBlock
	vsb     *vfs.SuperBlock

	mu      sync.Mutex
	nextIno uint64
	// children keeps overlay inode identity stable per (dir, name).
	children map[childKey]*vfs.Inode
}

type childKey struct {
	dir  uint64
	name string
}

// Mount implements vfs.FileSystemType.
func (f *FS) Mount(task *kbase.Task, data vfs.MountData) (*vfs.SuperBlock, kbase.Errno) {
	md, ok := vfs.MountDataAs[*MountData](data)
	if !ok || md.Upper == nil || md.Lower == nil {
		kbase.Oops(kbase.OopsTypeConfusion, "overlaylike", "mount data is not *overlaylike.MountData")
		return nil, kbase.EINVAL
	}
	inst := &fsInstance{
		upperSB:  md.Upper,
		lowerSB:  md.Lower,
		nextIno:  2,
		children: make(map[childKey]*vfs.Inode),
	}
	vsb := &vfs.SuperBlock{FSType: f.Name(), Ops: inst}
	vfs.SetSBPrivate(vsb, inst)
	inst.vsb = vsb
	root := inst.newInode(1, vfs.ModeDir, &ovlNode{
		upper: md.Upper.Root,
		lower: md.Lower.Root,
	})
	vsb.Root = root
	return vsb, kbase.EOK
}

func (inst *fsInstance) newInode(ino uint64, mode vfs.FileMode, node *ovlNode) *vfs.Inode {
	vi := &vfs.Inode{
		Ino:     ino,
		Mode:    mode,
		Nlink:   1,
		ILock:   kbase.NewSpinLock(vfs.ILockClass),
		Sb:      inst.vsb,
		Ops:     &inodeOps{inst: inst},
		FileOps: &fileOps{inst: inst},
	}
	vfs.SetPrivate(vi, node)
	if eff := node.effective(); eff != nil {
		vi.ISize = eff.SizeRead(nil)
	}
	return vi
}

func (inst *fsInstance) allocIno() uint64 {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	ino := inst.nextIno
	inst.nextIno++
	return ino
}

// effective returns the layer inode that serves reads.
func (n *ovlNode) effective() *vfs.Inode {
	if n.upper != nil {
		return n.upper
	}
	return n.lower
}

func nodeOf(ino *vfs.Inode) (*ovlNode, kbase.Errno) {
	n, ok := vfs.PrivateAs[*ovlNode](ino)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "overlaylike",
			"inode %d private is not *ovlNode", ino.Ino)
		return nil, kbase.EUCLEAN
	}
	return n, kbase.EOK
}

// layerLookup runs a typed Lookup on a layer inode.
func layerLookup(task *kbase.Task, dir *vfs.Inode, name string) (*vfs.Inode, kbase.Errno) {
	if dir == nil {
		return nil, kbase.ENOENT
	}
	return dir.Ops.LookupTyped(task, dir, name).Get()
}

// hasWhiteout reports whether upper dir carries a whiteout for name.
func hasWhiteout(task *kbase.Task, upper *vfs.Inode, name string) bool {
	if upper == nil {
		return false
	}
	_, err := layerLookup(task, upper, WhiteoutPrefix+name)
	return err == kbase.EOK
}

// inodeOps implements vfs.TypedInodeOps.
type inodeOps struct {
	inst *fsInstance
}

func (o *inodeOps) LookupTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	inst := o.inst
	if strings.HasPrefix(name, WhiteoutPrefix) {
		return typedapi.Err[*vfs.Inode](kbase.EINVAL)
	}
	dn, err := nodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	var upperChild, lowerChild *vfs.Inode
	if dn.upper != nil {
		if hasWhiteout(task, dn.upper, name) {
			return typedapi.Err[*vfs.Inode](kbase.ENOENT)
		}
		upperChild, _ = layerLookup(task, dn.upper, name)
	}
	if dn.lower != nil {
		lowerChild, _ = layerLookup(task, dn.lower, name)
	}
	if upperChild == nil && lowerChild == nil {
		return typedapi.Err[*vfs.Inode](kbase.ENOENT)
	}
	// A non-dir upper entry shadows the lower entirely.
	if upperChild != nil && !upperChild.Mode.IsDir() {
		lowerChild = nil
	}
	// A lower entry shadowed by an upper non-dir ancestor cannot
	// occur here; merged dirs require both to be dirs.
	if upperChild != nil && lowerChild != nil && !lowerChild.Mode.IsDir() {
		lowerChild = nil
	}

	inst.mu.Lock()
	defer inst.mu.Unlock()
	key := childKey{dir: dir.Ino, name: name}
	if vi, ok := inst.children[key]; ok {
		// Refresh layer pointers (copy-up may have happened).
		if vn, ok := vfs.PrivateAs[*ovlNode](vi); ok {
			vn.upper, vn.lower = upperChild, lowerChild
		}
		return typedapi.Ok(vi)
	}
	eff := upperChild
	if eff == nil {
		eff = lowerChild
	}
	vi := inst.newInode(inst.nextIno, eff.Mode, &ovlNode{
		parent: dir, name: name, upper: upperChild, lower: lowerChild,
	})
	inst.nextIno++
	inst.children[key] = vi
	return typedapi.Ok(vi)
}

// ensureUpperDir guarantees that the overlay dir inode has an upper
// layer directory, copying up the ancestor chain as needed.
func (inst *fsInstance) ensureUpperDir(task *kbase.Task, dir *vfs.Inode) (*vfs.Inode, kbase.Errno) {
	dn, err := nodeOf(dir)
	if err != kbase.EOK {
		return nil, err
	}
	if dn.upper != nil {
		return dn.upper, kbase.EOK
	}
	if dn.parent == nil {
		return nil, kbase.EUCLEAN // root always has an upper
	}
	parentUpper, err := inst.ensureUpperDir(task, dn.parent)
	if err != kbase.EOK {
		return nil, err
	}
	made, merr := parentUpper.Ops.MkdirTyped(task, parentUpper, dn.name).Get()
	if merr != kbase.EOK {
		if merr != kbase.EEXIST {
			return nil, merr
		}
		existing, e := layerLookup(task, parentUpper, dn.name)
		if e != kbase.EOK {
			return nil, e
		}
		made = existing
	}
	dn.upper = made
	return made, kbase.EOK
}

// copyUp materializes an upper copy of a lower-only file.
func (inst *fsInstance) copyUp(task *kbase.Task, ovl *vfs.Inode) kbase.Errno {
	n, err := nodeOf(ovl)
	if err != kbase.EOK {
		return err
	}
	if n.upper != nil {
		return kbase.EOK
	}
	if n.lower == nil || n.parent == nil {
		return kbase.EUCLEAN
	}
	if n.lower.Mode.IsDir() {
		_, err := inst.ensureUpperDir(task, ovl)
		return err
	}
	parentUpper, err := inst.ensureUpperDir(task, n.parent)
	if err != kbase.EOK {
		return err
	}
	upperFile, cerr := parentUpper.Ops.CreateTyped(task, parentUpper, n.name, vfs.ModeRegular).Get()
	if cerr != kbase.EOK {
		return cerr
	}
	// Copy content through the layers' file ops.
	size := n.lower.SizeRead(task)
	buf := make([]byte, size)
	if size > 0 {
		rd, e := n.lower.FileOps.Read(task, n.lower, buf, 0)
		if e != kbase.EOK {
			return e
		}
		buf = buf[:rd]
	}
	if len(buf) > 0 {
		if err := writeThrough(task, upperFile, buf, 0); err != kbase.EOK {
			return err
		}
	}
	n.upper = upperFile
	return kbase.EOK
}

// writeThrough drives a layer's three-phase write protocol once.
func writeThrough(task *kbase.Task, ino *vfs.Inode, data []byte, off int64) kbase.Errno {
	private, err := ino.FileOps.WriteBegin(task, ino, off, len(data))
	if err != kbase.EOK {
		return err
	}
	n, err := ino.FileOps.WriteCopy(task, ino, off, data, private)
	if err != kbase.EOK && n == 0 {
		return err
	}
	if endErr := ino.FileOps.WriteEnd(task, ino, off, n, private); err == kbase.EOK {
		err = endErr
	}
	return err
}

func (o *inodeOps) CreateTyped(task *kbase.Task, dir *vfs.Inode, name string, mode vfs.FileMode) typedapi.Result[*vfs.Inode] {
	inst := o.inst
	if strings.HasPrefix(name, WhiteoutPrefix) {
		return typedapi.Err[*vfs.Inode](kbase.EINVAL)
	}
	// Existence check in the merged view.
	if _, e := o.LookupTyped(task, dir, name).Get(); e == kbase.EOK {
		return typedapi.Err[*vfs.Inode](kbase.EEXIST)
	}
	upperDir, err := inst.ensureUpperDir(task, dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	// Clear any whiteout.
	if hasWhiteout(task, upperDir, name) {
		if e := upperDir.Ops.Unlink(task, upperDir, WhiteoutPrefix+name); e != kbase.EOK {
			return typedapi.Err[*vfs.Inode](e)
		}
	}
	var made *vfs.Inode
	var merr kbase.Errno
	if mode.IsDir() {
		made, merr = upperDir.Ops.MkdirTyped(task, upperDir, name).Get()
	} else {
		made, merr = upperDir.Ops.CreateTyped(task, upperDir, name, mode).Get()
	}
	if merr != kbase.EOK {
		return typedapi.Err[*vfs.Inode](merr)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	key := childKey{dir: dir.Ino, name: name}
	vi := inst.newInode(inst.nextIno, mode, &ovlNode{
		parent: dir, name: name, upper: made,
	})
	inst.nextIno++
	inst.children[key] = vi
	return typedapi.Ok(vi)
}

func (o *inodeOps) MkdirTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	return o.CreateTyped(task, dir, name, vfs.ModeDir)
}

func (o *inodeOps) Unlink(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	return o.inst.remove(task, dir, name, false)
}

func (o *inodeOps) Rmdir(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	return o.inst.remove(task, dir, name, true)
}

func (inst *fsInstance) remove(task *kbase.Task, dir *vfs.Inode, name string, wantDir bool) kbase.Errno {
	ops := &inodeOps{inst: inst}
	target, terr := ops.LookupTyped(task, dir, name).Get()
	if terr != kbase.EOK {
		return terr
	}
	if wantDir != target.Mode.IsDir() {
		if wantDir {
			return kbase.ENOTDIR
		}
		return kbase.EISDIR
	}
	if wantDir {
		ents, err := ops.ReadDir(task, target)
		if err != kbase.EOK {
			return err
		}
		if len(ents) > 0 {
			return kbase.ENOTEMPTY
		}
	}
	tn, err := nodeOf(target)
	if err != kbase.EOK {
		return err
	}
	dn, err := nodeOf(dir)
	if err != kbase.EOK {
		return err
	}
	// Remove the upper entry if present.
	if tn.upper != nil && dn.upper != nil {
		var e kbase.Errno
		if wantDir {
			// The upper dir may still hold whiteout markers for
			// deleted lower entries; clear them before rmdir.
			ents, le := tn.upper.Ops.ReadDir(task, tn.upper)
			if le != kbase.EOK {
				return le
			}
			for _, ent := range ents {
				if strings.HasPrefix(ent.Name, WhiteoutPrefix) {
					if ue := tn.upper.Ops.Unlink(task, tn.upper, ent.Name); ue != kbase.EOK {
						return ue
					}
				}
			}
			e = dn.upper.Ops.Rmdir(task, dn.upper, name)
		} else {
			e = dn.upper.Ops.Unlink(task, dn.upper, name)
		}
		if e != kbase.EOK {
			return e
		}
		tn.upper = nil
	}
	// Whiteout if a lower entry would shine through.
	if tn.lower != nil {
		upperDir, err := inst.ensureUpperDir(task, dir)
		if err != kbase.EOK {
			return err
		}
		if _, e := upperDir.Ops.CreateTyped(task, upperDir, WhiteoutPrefix+name, vfs.ModeRegular).Get(); e != kbase.EOK {
			return e
		}
	}
	inst.mu.Lock()
	delete(inst.children, childKey{dir: dir.Ino, name: name})
	inst.mu.Unlock()
	return kbase.EOK
}

func (o *inodeOps) Rename(task *kbase.Task, oldDir *vfs.Inode, oldName string, newDir *vfs.Inode, newName string) kbase.Errno {
	inst := o.inst
	src, serr := o.LookupTyped(task, oldDir, oldName).Get()
	if serr != kbase.EOK {
		return serr
	}
	if src.Mode.IsDir() {
		// No redirect_dir support: directory renames cross layers.
		return kbase.EXDEV
	}
	// Replace semantics: an existing non-dir target is removed.
	if existing, e := o.LookupTyped(task, newDir, newName).Get(); e == kbase.EOK {
		if existing == src {
			// POSIX: oldpath and newpath name the same file — rename
			// does nothing and reports success (removing the target
			// here would remove the source itself).
			return kbase.EOK
		}
		if existing.Mode.IsDir() {
			return kbase.EISDIR
		}
		if err := inst.remove(task, newDir, newName, false); err != kbase.EOK {
			return err
		}
	}
	if err := inst.copyUp(task, src); err != kbase.EOK {
		return err
	}
	sn, err := nodeOf(src)
	if err != kbase.EOK {
		return err
	}
	oldUpper, err := inst.ensureUpperDir(task, oldDir)
	if err != kbase.EOK {
		return err
	}
	newUpper, err := inst.ensureUpperDir(task, newDir)
	if err != kbase.EOK {
		return err
	}
	if hasWhiteout(task, newUpper, newName) {
		if e := newUpper.Ops.Unlink(task, newUpper, WhiteoutPrefix+newName); e != kbase.EOK {
			return e
		}
	}
	if err := oldUpper.Ops.Rename(task, oldUpper, oldName, newUpper, newName); err != kbase.EOK {
		return err
	}
	// Whiteout the old name if a lower entry shines through.
	if sn.lower != nil {
		if _, e := oldUpper.Ops.CreateTyped(task, oldUpper, WhiteoutPrefix+oldName, vfs.ModeRegular).Get(); e != kbase.EOK {
			return e
		}
	}
	inst.mu.Lock()
	delete(inst.children, childKey{dir: oldDir.Ino, name: oldName})
	delete(inst.children, childKey{dir: newDir.Ino, name: newName})
	inst.mu.Unlock()
	return kbase.EOK
}

func (o *inodeOps) ReadDir(task *kbase.Task, dir *vfs.Inode) ([]vfs.DirEntry, kbase.Errno) {
	dn, err := nodeOf(dir)
	if err != kbase.EOK {
		return nil, err
	}
	seen := make(map[string]bool)
	whited := make(map[string]bool)
	var out []vfs.DirEntry
	if dn.upper != nil {
		ents, e := dn.upper.Ops.ReadDir(task, dn.upper)
		if e != kbase.EOK {
			return nil, e
		}
		for _, ent := range ents {
			if strings.HasPrefix(ent.Name, WhiteoutPrefix) {
				whited[strings.TrimPrefix(ent.Name, WhiteoutPrefix)] = true
				continue
			}
			seen[ent.Name] = true
			out = append(out, ent)
		}
	}
	if dn.lower != nil {
		ents, e := dn.lower.Ops.ReadDir(task, dn.lower)
		if e != kbase.EOK {
			return nil, e
		}
		for _, ent := range ents {
			if seen[ent.Name] || whited[ent.Name] {
				continue
			}
			out = append(out, ent)
		}
	}
	return out, kbase.EOK
}

// ovlToken carries the upper layer's private write state plus the
// overlay inode through the VFS's WriteState ferry.
type ovlToken struct {
	ovl          *vfs.Inode
	upper        *vfs.Inode
	upperPrivate vfs.WriteState
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
	eff := n.effective()
	if eff == nil {
		return 0, kbase.ESTALE
	}
	return eff.FileOps.Read(task, eff, buf, off)
}

func (fo *fileOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, cnt int) (vfs.WriteState, kbase.Errno) {
	if err := fo.inst.copyUp(task, ino); err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	n, err := nodeOf(ino)
	if err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	private, err := n.upper.FileOps.WriteBegin(task, n.upper, off, cnt)
	if err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	return vfs.NewWriteState(&ovlToken{ovl: ino, upper: n.upper, upperPrivate: private}), kbase.EOK
}

func (fo *fileOps) WriteCopy(task *kbase.Task, ino *vfs.Inode, off int64, data []byte, private vfs.WriteState) (int, kbase.Errno) {
	tok, ok := vfs.WriteStateAs[*ovlToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "overlaylike",
			"write_copy private is not *ovlToken")
		return 0, kbase.EUCLEAN
	}
	return tok.upper.FileOps.WriteCopy(task, tok.upper, off, data, tok.upperPrivate)
}

func (fo *fileOps) WriteEnd(task *kbase.Task, ino *vfs.Inode, off int64, cnt int, private vfs.WriteState) kbase.Errno {
	tok, ok := vfs.WriteStateAs[*ovlToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "overlaylike",
			"write_end private is not *ovlToken")
		return kbase.EUCLEAN
	}
	err := tok.upper.FileOps.WriteEnd(task, tok.upper, off, cnt, tok.upperPrivate)
	if err == kbase.EOK {
		ino.SizeWrite(task, tok.upper.SizeRead(task))
	}
	return err
}

func (fo *fileOps) Truncate(task *kbase.Task, ino *vfs.Inode, size int64) kbase.Errno {
	if err := fo.inst.copyUp(task, ino); err != kbase.EOK {
		return err
	}
	n, err := nodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	if err := n.upper.FileOps.Truncate(task, n.upper, size); err != kbase.EOK {
		return err
	}
	ino.SizeWrite(task, size)
	return kbase.EOK
}

func (fo *fileOps) Fsync(task *kbase.Task, ino *vfs.Inode) kbase.Errno {
	n, err := nodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	if n.upper != nil {
		return n.upper.FileOps.Fsync(task, n.upper)
	}
	return kbase.EOK
}

// SuperBlockOps.

func (inst *fsInstance) Statfs(task *kbase.Task) (vfs.StatFS, kbase.Errno) {
	if inst.upperSB.Ops == nil {
		return vfs.StatFS{FSName: "overlaylike"}, kbase.EOK
	}
	st, err := inst.upperSB.Ops.Statfs(task)
	if err != kbase.EOK {
		return vfs.StatFS{}, err
	}
	st.FSName = "overlaylike"
	return st, kbase.EOK
}

func (inst *fsInstance) SyncFS(task *kbase.Task) kbase.Errno {
	if inst.upperSB.Ops == nil {
		return kbase.EOK
	}
	return inst.upperSB.Ops.SyncFS(task)
}

func (inst *fsInstance) Unmount(task *kbase.Task) kbase.Errno {
	return inst.SyncFS(task)
}
